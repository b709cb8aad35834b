#include "core/analysis.h"

#include <cstdio>
#include <sstream>

#include "base/check.h"

namespace mocograd {
namespace core {

void ConflictTracker::RecordFromCosines(int num_tasks,
                                        const std::vector<double>& cosines) {
  const int k = num_tasks;
  MG_CHECK_EQ(static_cast<size_t>(k) * k, cosines.size());
  if (num_tasks_ == 0) {
    num_tasks_ = k;
    conflict_counts_.assign(static_cast<size_t>(k) * k, 0);
    gcd_sums_.assign(static_cast<size_t>(k) * k, 0.0);
  }
  MG_CHECK_EQ(num_tasks_, k, "task count changed; call Reset()");

  double total = 0.0;
  int pairs = 0;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      const double gcd = 1.0 - cosines[Index(i, j)];
      gcd_sums_[Index(i, j)] += gcd;
      gcd_sums_[Index(j, i)] += gcd;
      if (gcd > 1.0) {
        ++conflict_counts_[Index(i, j)];
        ++conflict_counts_[Index(j, i)];
      }
      total += gcd;
      ++pairs;
    }
  }
  gcd_trace_.push_back(pairs > 0 ? total / pairs : 0.0);
  ++num_steps_;
}

double ConflictTracker::ConflictFrequency(int i, int j) const {
  MG_CHECK_GT(num_steps_, 0, "nothing recorded");
  MG_CHECK(i >= 0 && i < num_tasks_ && j >= 0 && j < num_tasks_);
  if (i == j) return 0.0;
  return static_cast<double>(conflict_counts_[Index(i, j)]) / num_steps_;
}

double ConflictTracker::MeanPairGcd(int i, int j) const {
  MG_CHECK_GT(num_steps_, 0, "nothing recorded");
  MG_CHECK(i >= 0 && i < num_tasks_ && j >= 0 && j < num_tasks_);
  if (i == j) return 0.0;
  return gcd_sums_[Index(i, j)] / num_steps_;
}

std::pair<int, int> ConflictTracker::MostConflictingPair() const {
  if (num_steps_ == 0) return {-1, -1};
  std::pair<int, int> best = {-1, -1};
  int64_t best_count = -1;
  for (int i = 0; i < num_tasks_; ++i) {
    for (int j = i + 1; j < num_tasks_; ++j) {
      if (conflict_counts_[Index(i, j)] > best_count) {
        best_count = conflict_counts_[Index(i, j)];
        best = {i, j};
      }
    }
  }
  return best;
}

std::string ConflictTracker::Summary() const {
  std::ostringstream out;
  out << "ConflictTracker: " << num_steps_ << " steps, " << num_tasks_
      << " tasks\n";
  if (num_steps_ == 0) return out.str();
  out << "conflict frequency (rows=i, cols=j):\n";
  for (int i = 0; i < num_tasks_; ++i) {
    out << "  ";
    for (int j = 0; j < num_tasks_; ++j) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f ", ConflictFrequency(i, j));
      out << buf;
    }
    out << "\n";
  }
  const auto [i, j] = MostConflictingPair();
  out << "most conflicting pair: (" << i << ", " << j << ") at "
      << ConflictFrequency(i, j) << "\n";
  return out.str();
}

void ConflictTracker::Reset() {
  num_tasks_ = 0;
  num_steps_ = 0;
  gcd_trace_.clear();
  conflict_counts_.clear();
  gcd_sums_.clear();
}

}  // namespace core
}  // namespace mocograd
