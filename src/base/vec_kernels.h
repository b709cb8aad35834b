#ifndef MOCOGRAD_BASE_VEC_KERNELS_H_
#define MOCOGRAD_BASE_VEC_KERNELS_H_

// Per-tier function table behind the vec:: span kernels (base/vec_ops.h)
// and the optimizer update loops (optim/optimizer.cc). Each kernel tier
// (docs/SIMD.md "Runtime dispatch") compiles one instantiation of the
// kernels in base/vec_kernels_impl.h into its own translation unit
// (base/vec_kernels_tier_*.cc) with per-file ISA flags, and exposes it
// through the Get* functions below; tiers the build or target cannot
// produce return nullptr. The selector (vec_kernels.cc) hands callers the
// table for the active tier.
//
// Every tier computes bit-identical results — the kernels are written
// against the exactly-rounded base/simd.h vocabulary with scalar tails
// performing the identical per-element arithmetic — so the tier choice
// changes speed, never outputs.
//
// The kernels are serial over their span: callers that want threads wrap
// them in ParallelFor chunks (elementwise kernels are lane-grouping
// independent; the f64 reductions must be called on the fixed reduction
// blocks of tensor/ops.cc, whose lane decomposition anchors at the span
// start).

#include <cstdint>

#include "base/simd.h"

namespace mocograd {
namespace vec {

struct VecKernels {
  const char* name;  // tier name, equals simd::TierName of the source tier

  // Surgery / reduction spans (see base/vec_ops.h for contracts).
  void (*axpy)(int64_t n, float alpha, const float* x, float* y);
  void (*add)(int64_t n, const float* x, float* y);
  void (*scale)(int64_t n, float alpha, float* y);
  void (*ema)(int64_t n, float beta, const float* g, float* m);
  double (*dot_f64)(int64_t n, const float* a, const float* b);
  double (*sum_f64)(int64_t n, const float* a);
  void (*gram_f64)(int k, int row_begin, int row_end,
                   const float* const* rows, int64_t n, double* scratch,
                   double* out);

  // Elementwise spans (tensor/ops.cc). o may alias a or b.
  void (*ew_add)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_sub)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_mul)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_div)(int64_t n, const float* a, const float* b, float* o);
  // o[i] = Max(b[i], a[i]): the second operand (a) wins on unordered —
  // preserves tensor/ops.cc Maximum semantics (NaN in a propagates).
  void (*ew_maximum)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_add_scalar)(int64_t n, const float* a, float s, float* o);
  void (*ew_mul_scalar)(int64_t n, const float* a, float s, float* o);
  void (*ew_neg)(int64_t n, const float* a, float* o);
  void (*ew_sqrt)(int64_t n, const float* a, float* o);
  void (*ew_abs)(int64_t n, const float* a, float* o);
  void (*ew_relu)(int64_t n, const float* a, float* o);
  void (*ew_clamp)(int64_t n, const float* a, float lo, float hi, float* o);
  // Activation backward: o[i] = g[i] * (derivative mask of x[i]).
  void (*ew_relu_grad)(int64_t n, const float* g, const float* x, float* o);
  void (*ew_clamp_grad)(int64_t n, const float* g, const float* x, float lo,
                        float hi, float* o);

  // Optimizer per-tensor update spans (optim/optimizer.cc documents the
  // exact update arithmetic; weight decay folds in via fused multiply-add).
  void (*sgd_momentum)(int64_t n, float lr, float momentum, float wd,
                       const float* g, float* v, float* x);
  void (*sgd_plain)(int64_t n, float lr, float wd, const float* g, float* x);
  void (*adam)(int64_t n, float lr, float b1, float b2, float eps, float wd,
               float bc1, float bc2, const float* g, float* m, float* v,
               float* x);
  void (*adagrad)(int64_t n, float lr, float eps, const float* g, float* a,
                  float* x);
};

// GramF64 sweeps its rows in column sub-tiles: one sub-tile of the rows a
// stripe touches, widened to double, takes at most kGramTileBytes, so it
// stays in L1 while every pair of the stripe streams over it (on a 4-core
// Xeon with 48 KiB of L1d, an L2-sized 256 KiB sub-tile ran the K = 32
// Gram 1.2-2x slower).
constexpr int64_t kGramTileBytes = int64_t{32} << 10;

/// Columns per GramF64 sub-tile when `rows` rows are widened (a multiple
/// of 8, at least 8). Tier-independent: tiling never changes results.
inline int64_t GramTileCols(int rows) {
  const int64_t cols =
      (kGramTileBytes / (static_cast<int64_t>(sizeof(double)) * rows)) &
      ~int64_t{7};
  return cols < 8 ? 8 : cols;
}

// Per-tier tables, defined in base/vec_kernels_tier_*.cc. nullptr when the
// tier is not compiled in (wrong architecture, missing compiler support, or
// a force-scalar build). The scalar table always exists.
const VecKernels* GetVecKernelsScalar();
const VecKernels* GetVecKernelsSse();
const VecKernels* GetVecKernelsAvx2();
const VecKernels* GetVecKernelsAvx512();
const VecKernels* GetVecKernelsNeon();

/// Table for `tier`, or nullptr when that tier was not compiled in. The
/// tier selector (base/simd.cc) uses this to discover the best compiled
/// tier at startup.
const VecKernels* VecKernelsForTier(simd::IsaTier tier);

/// Table for simd::ActiveTier(), walking down to the nearest available
/// tier (defensively — the active tier is already clamped to availability).
const VecKernels& ActiveVecKernels();

}  // namespace vec
}  // namespace mocograd

#endif  // MOCOGRAD_BASE_VEC_KERNELS_H_
