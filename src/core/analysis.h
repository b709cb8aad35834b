#ifndef MOCOGRAD_CORE_ANALYSIS_H_
#define MOCOGRAD_CORE_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mocograd {
namespace core {

/// Accumulates gradient-conflict statistics across training steps: the
/// per-step mean GCD trace and the pairwise conflict-frequency matrix —
/// the raw material of the paper's §III analysis, packaged for research
/// users who want to inspect *which* task pairs fight and when.
class ConflictTracker {
 public:
  /// Records one step from its K×K pairwise cosine matrix (row-major;
  /// GCD = 1 − cos): a trainer step's StepStats::cosines, or
  /// PairwiseCosines over a task-gradient matrix.
  void RecordFromCosines(int num_tasks, const std::vector<double>& cosines);

  int64_t num_steps() const { return num_steps_; }
  int num_tasks() const { return num_tasks_; }

  /// Mean pairwise GCD per recorded step.
  const std::vector<double>& gcd_trace() const { return gcd_trace_; }

  /// Fraction of recorded steps in which tasks i and j conflicted
  /// (GCD > 1). Symmetric; diagonal is 0.
  double ConflictFrequency(int i, int j) const;

  /// Mean GCD between tasks i and j over all recorded steps.
  double MeanPairGcd(int i, int j) const;

  /// The pair with the highest conflict frequency (i < j); {-1, -1} before
  /// any recording.
  std::pair<int, int> MostConflictingPair() const;

  /// Multi-line human-readable summary of the conflict structure.
  std::string Summary() const;

  /// Clears all recorded state.
  void Reset();

 private:
  int64_t Index(int i, int j) const { return i * num_tasks_ + j; }

  int num_tasks_ = 0;
  int64_t num_steps_ = 0;
  std::vector<double> gcd_trace_;
  std::vector<int64_t> conflict_counts_;  // K×K
  std::vector<double> gcd_sums_;          // K×K
};

}  // namespace core
}  // namespace mocograd

#endif  // MOCOGRAD_CORE_ANALYSIS_H_
