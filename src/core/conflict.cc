#include "core/conflict.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace mocograd {
namespace core {

namespace {
constexpr double kEps = 1e-12;
}  // namespace

double CosineSimilarity(const float* a, const float* b, int64_t n) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  if (denom < kEps) return 0.0;
  return dot / denom;
}

double Gcd(const float* a, const float* b, int64_t n) {
  return 1.0 - CosineSimilarity(a, b, n);
}

bool IsConflicting(const float* a, const float* b, int64_t n) {
  return Gcd(a, b, n) > 1.0;
}

ConflictStats ComputeConflictStats(const GradMatrix& grads) {
  return ConflictStatsFromCosines(grads.num_tasks(), PairwiseCosines(grads));
}

std::vector<double> PairwiseCosines(const GradMatrix& grads) {
  const int k = grads.num_tasks();
  const std::vector<std::vector<double>> gram = grads.Gram();
  std::vector<double> cosines(static_cast<size_t>(k) * k, 1.0);
  // The zero-norm convention of obs::AggregatorTrace::SetCosinesFromGram,
  // so fallback and published cosines agree bit for bit.
  for (int i = 0; i < k; ++i) {
    const double ni = std::sqrt(std::max(gram[i][i], 0.0));
    for (int j = i + 1; j < k; ++j) {
      const double denom = ni * std::sqrt(std::max(gram[j][j], 0.0));
      const double cos = denom < kEps ? 0.0 : gram[i][j] / denom;
      cosines[static_cast<size_t>(i) * k + j] = cos;
      cosines[static_cast<size_t>(j) * k + i] = cos;
    }
  }
  return cosines;
}

ConflictStats ConflictStatsFromCosines(int num_tasks,
                                       const std::vector<double>& cosines) {
  MG_CHECK_EQ(static_cast<size_t>(num_tasks) * num_tasks, cosines.size());
  ConflictStats stats;
  double total = 0.0;
  for (int i = 0; i < num_tasks; ++i) {
    for (int j = i + 1; j < num_tasks; ++j) {
      const double gcd = 1.0 - cosines[static_cast<size_t>(i) * num_tasks + j];
      total += gcd;
      stats.max_gcd = std::max(stats.max_gcd, gcd);
      if (gcd > 1.0) ++stats.num_conflicting_pairs;
      ++stats.num_pairs;
    }
  }
  if (stats.num_pairs > 0) total /= stats.num_pairs;
  stats.mean_gcd = total;
  return stats;
}

}  // namespace core
}  // namespace mocograd
