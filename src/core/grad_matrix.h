#ifndef MOCOGRAD_CORE_GRAD_MATRIX_H_
#define MOCOGRAD_CORE_GRAD_MATRIX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/check.h"

namespace mocograd {
namespace mtl {
class MtlTrainer;
}  // namespace mtl

namespace core {

/// Dense K×P matrix holding one flattened shared-parameter gradient per
/// task. This is the common currency of every gradient-manipulation method:
/// the trainer fills one row per task-backward pass and hands the matrix to
/// a GradientAggregator.
class GradMatrix {
 public:
  /// A zero-filled num_tasks × dim matrix.
  GradMatrix(int num_tasks, int64_t dim)
      : GradMatrix(num_tasks, dim, /*zero_fill=*/true) {}

  int num_tasks() const { return num_tasks_; }
  int64_t dim() const { return dim_; }

  float* Row(int k) {
    MG_CHECK_GE(k, 0);
    MG_CHECK_LT(k, num_tasks_);
    return data_.get() + static_cast<size_t>(k) * dim_;
  }
  const float* Row(int k) const {
    MG_CHECK_GE(k, 0);
    MG_CHECK_LT(k, num_tasks_);
    return data_.get() + static_cast<size_t>(k) * dim_;
  }

  /// Copies `src` (size dim) into row k.
  void SetRow(int k, const std::vector<float>& src);

  /// Row k as a std::vector copy.
  std::vector<float> RowVector(int k) const;

  /// g_i · g_j in double precision.
  double RowDot(int i, int j) const;

  /// ‖g_i‖₂.
  double RowNorm(int i) const;

  /// Full K×K Gram matrix.
  std::vector<std::vector<double>> Gram() const;

  /// Σ_k g_k.
  std::vector<float> SumRows() const;

  /// Σ_k w_k g_k with per-task weights.
  std::vector<float> WeightedSumRows(const std::vector<double>& w) const;

 private:
  // The trainer's rows are zeroed by the task that fills each one, in
  // parallel, so it alone skips the constructor's serial fill.
  friend class mtl::MtlTrainer;

  GradMatrix(int num_tasks, int64_t dim, bool zero_fill)
      : num_tasks_(num_tasks), dim_(dim) {
    MG_CHECK_GT(num_tasks, 0);
    MG_CHECK_GT(dim, 0);
    const size_t n = static_cast<size_t>(num_tasks) * dim;
    data_ = zero_fill ? std::make_unique<float[]>(n)
                      : std::make_unique_for_overwrite<float[]>(n);
  }

  int num_tasks_;
  int64_t dim_;
  std::unique_ptr<float[]> data_;
};

}  // namespace core
}  // namespace mocograd

#endif  // MOCOGRAD_CORE_GRAD_MATRIX_H_
