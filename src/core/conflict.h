#ifndef MOCOGRAD_CORE_CONFLICT_H_
#define MOCOGRAD_CORE_CONFLICT_H_

#include <cstdint>
#include <vector>

#include "core/grad_matrix.h"

namespace mocograd {
namespace core {

/// Cosine similarity of two flat gradients (0 when either is ~zero).
double CosineSimilarity(const float* a, const float* b, int64_t n);

/// Gradient Conflict Degree, Definition 3 of the paper:
///   GCD(g_i, g_j) = 1 − cos φ_ij.
/// Conflict occurs iff GCD > 1 (equivalently cos φ < 0).
double Gcd(const float* a, const float* b, int64_t n);

/// True when the pair of gradients conflicts under Definition 3.
bool IsConflicting(const float* a, const float* b, int64_t n);

/// Pairwise conflict statistics for one optimization step, the raw material
/// of the paper's Fig. 2 analysis (TCI-vs-GCD correlation).
struct ConflictStats {
  /// Mean pairwise GCD over all i<j pairs.
  double mean_gcd = 0.0;
  /// Maximum pairwise GCD.
  double max_gcd = 0.0;
  /// Number of conflicting pairs (GCD > 1).
  int num_conflicting_pairs = 0;
  /// Total number of pairs considered.
  int num_pairs = 0;
};

/// Computes pairwise conflict statistics over the task-gradient matrix.
/// Equivalent to ConflictStatsFromCosines(PairwiseCosines(grads)).
ConflictStats ComputeConflictStats(const GradMatrix& grads);

/// The full K×K pairwise cosine matrix of the task gradients (row-major,
/// symmetric, diagonal 1), derived from one GradMatrix::Gram() pass as
/// G_ij / (sqrt(G_ii)·sqrt(G_jj)), 0 when that denominator is below 1e-12 —
/// bit-identical to AggregatorTrace::SetCosinesFromGram on the same Gram.
std::vector<double> PairwiseCosines(const GradMatrix& grads);

/// Conflict statistics from an already-computed K×K cosine matrix — the
/// dedupe path for aggregators that publish their cosines through
/// obs::AggregatorTrace (GCD = 1 − cos, pairs visited in i<j row order,
/// matching ComputeConflictStats exactly).
ConflictStats ConflictStatsFromCosines(int num_tasks,
                                       const std::vector<double>& cosines);

}  // namespace core
}  // namespace mocograd

#endif  // MOCOGRAD_CORE_CONFLICT_H_
