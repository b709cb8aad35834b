#include "base/vec_ops.h"

#include "base/vec_kernels.h"

namespace mocograd {
namespace vec {

// Thin front-ends over the per-tier kernel table: each call looks the
// active tier up (one relaxed atomic load) so tests (simd::SetTier) can
// flip the tier mid-process. The kernel bodies
// live in base/vec_kernels_impl.h, compiled once per tier with per-file
// ISA flags.

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  ActiveVecKernels().axpy(n, alpha, x, y);
}

void Add(int64_t n, const float* x, float* y) {
  ActiveVecKernels().add(n, x, y);
}

void Scale(int64_t n, float alpha, float* y) {
  ActiveVecKernels().scale(n, alpha, y);
}

void Ema(int64_t n, float beta, const float* g, float* m) {
  ActiveVecKernels().ema(n, beta, g, m);
}

double DotF64(int64_t n, const float* a, const float* b) {
  return ActiveVecKernels().dot_f64(n, a, b);
}

double SquaredNormF64(int64_t n, const float* a) { return DotF64(n, a, a); }

double SumF64(int64_t n, const float* a) {
  return ActiveVecKernels().sum_f64(n, a);
}

void GramF64(int k, int row_begin, int row_end, const float* const* rows,
             int64_t n, double* scratch, double* out) {
  ActiveVecKernels().gram_f64(k, row_begin, row_end, rows, n, scratch, out);
}

int64_t GramF64ScratchDoubles(int k, int row_begin, int row_end) {
  const int span = k - row_begin;
  return int64_t{8} * (row_end - row_begin) * k + span * GramTileCols(span);
}

void EwAdd(int64_t n, const float* a, const float* b, float* o) {
  ActiveVecKernels().ew_add(n, a, b, o);
}

void EwSub(int64_t n, const float* a, const float* b, float* o) {
  ActiveVecKernels().ew_sub(n, a, b, o);
}

void EwMul(int64_t n, const float* a, const float* b, float* o) {
  ActiveVecKernels().ew_mul(n, a, b, o);
}

void EwDiv(int64_t n, const float* a, const float* b, float* o) {
  ActiveVecKernels().ew_div(n, a, b, o);
}

void EwMaximum(int64_t n, const float* a, const float* b, float* o) {
  ActiveVecKernels().ew_maximum(n, a, b, o);
}

void EwAddScalar(int64_t n, const float* a, float s, float* o) {
  ActiveVecKernels().ew_add_scalar(n, a, s, o);
}

void EwMulScalar(int64_t n, const float* a, float s, float* o) {
  ActiveVecKernels().ew_mul_scalar(n, a, s, o);
}

void EwNeg(int64_t n, const float* a, float* o) {
  ActiveVecKernels().ew_neg(n, a, o);
}

void EwSqrt(int64_t n, const float* a, float* o) {
  ActiveVecKernels().ew_sqrt(n, a, o);
}

void EwAbs(int64_t n, const float* a, float* o) {
  ActiveVecKernels().ew_abs(n, a, o);
}

void EwRelu(int64_t n, const float* a, float* o) {
  ActiveVecKernels().ew_relu(n, a, o);
}

void EwClamp(int64_t n, const float* a, float lo, float hi, float* o) {
  ActiveVecKernels().ew_clamp(n, a, lo, hi, o);
}
void EwReluGrad(int64_t n, const float* g, const float* x, float* o) {
  ActiveVecKernels().ew_relu_grad(n, g, x, o);
}
void EwClampGrad(int64_t n, const float* g, const float* x, float lo,
                 float hi, float* o) {
  ActiveVecKernels().ew_clamp_grad(n, g, x, lo, hi, o);
}

void SgdMomentum(int64_t n, float lr, float momentum, float wd,
                 const float* g, float* v, float* x) {
  ActiveVecKernels().sgd_momentum(n, lr, momentum, wd, g, v, x);
}

void SgdPlain(int64_t n, float lr, float wd, const float* g, float* x) {
  ActiveVecKernels().sgd_plain(n, lr, wd, g, x);
}

void Adam(int64_t n, float lr, float b1, float b2, float eps, float wd,
          float bc1, float bc2, const float* g, float* m, float* v,
          float* x) {
  ActiveVecKernels().adam(n, lr, b1, b2, eps, wd, bc1, bc2, g, m, v, x);
}

void Adagrad(int64_t n, float lr, float eps, const float* g, float* a,
             float* x) {
  ActiveVecKernels().adagrad(n, lr, eps, g, a, x);
}

}  // namespace vec
}  // namespace mocograd
