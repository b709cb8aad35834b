#ifndef MOCOGRAD_BASE_VEC_OPS_H_
#define MOCOGRAD_BASE_VEC_OPS_H_

#include <cstdint>

namespace mocograd {
namespace vec {

// Serial SIMD span kernels shared by the hot paths (tensor/ops.cc,
// core/grad_matrix.cc, the gradient-surgery loops in src/core, and the
// optimizer update loops). Each function processes [0, n) in 8-lane blocks
// with a scalar tail that performs the identical per-element arithmetic,
// so the result is bit-identical across kernel tiers, whatever the
// MOCOGRAD_SIMD_ISA ceiling. Since the runtime ISA dispatch
// (docs/SIMD.md) these are thin front-ends over the per-tier function
// table in base/vec_kernels.h; the bodies live in base/vec_kernels_impl.h,
// compiled once per tier. None of these parallelize internally — callers
// that want threads wrap them in ParallelFor chunks (safe for the
// elementwise kernels, whose per-element results do not depend on lane
// grouping) or call them on the fixed reduction blocks (for the dots/sums,
// whose lane decomposition is anchored at the span start).

/// y[i] += alpha * x[i] (fused multiply-add per element).
void Axpy(int64_t n, float alpha, const float* x, float* y);

/// y[i] += x[i].
void Add(int64_t n, const float* x, float* y);

/// y[i] *= alpha.
void Scale(int64_t n, float alpha, float* y);

/// m[i] = beta * m[i] + (1 - beta) * g[i] — the EMA/momentum update
/// (computed as fma(beta, m, (1-beta)*g)).
void Ema(int64_t n, float beta, const float* g, float* m);

/// Σ a[i]·b[i] accumulated in double precision: 8 floats per step widen
/// into two 4-lane double accumulators, combined lane-wise and reduced in
/// fixed lane order at the end; tail elements fold in sequentially.
double DotF64(int64_t n, const float* a, const float* b);

/// Σ a[i]² in double precision (same decomposition as DotF64).
double SquaredNormF64(int64_t n, const float* a);

/// Σ a[i] in double precision (same decomposition as DotF64).
double SumF64(int64_t n, const float* a);

/// Upper-triangle block of the Gram matrix of k rows over one span of n
/// columns: out[i*k + j] = DotF64(n, rows[i], rows[j]), memcmp-equal, for
/// i in [row_begin, row_end) and j in [i, k); other entries of `out` are
/// not written. `scratch` holds GramF64ScratchDoubles(k, row_begin,
/// row_end) doubles (accumulators plus one widened column sub-tile) and
/// comes from the caller's ScratchScope; the kernel does no heap work.
void GramF64(int k, int row_begin, int row_end, const float* const* rows,
             int64_t n, double* scratch, double* out);
int64_t GramF64ScratchDoubles(int k, int row_begin, int row_end);

// Elementwise spans (tensor/ops.cc fast paths). `o` may alias an input.

/// o[i] = a[i] + b[i].
void EwAdd(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] - b[i].
void EwSub(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] * b[i].
void EwMul(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] / b[i].
void EwDiv(int64_t n, const float* a, const float* b, float* o);
/// o[i] = Max(b[i], a[i]) — the second operand (a) wins on unordered
/// comparisons, preserving tensor/ops.cc Maximum semantics.
void EwMaximum(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] + s.
void EwAddScalar(int64_t n, const float* a, float s, float* o);
/// o[i] = a[i] * s.
void EwMulScalar(int64_t n, const float* a, float s, float* o);
/// o[i] = -a[i] (sign-bit flip).
void EwNeg(int64_t n, const float* a, float* o);
/// o[i] = sqrt(a[i]) (exactly rounded).
void EwSqrt(int64_t n, const float* a, float* o);
/// o[i] = |a[i]| (sign-bit clear).
void EwAbs(int64_t n, const float* a, float* o);
/// o[i] = Max(a[i], 0) — NaN inputs map to 0.
void EwRelu(int64_t n, const float* a, float* o);
/// o[i] = Min(Max(a[i], lo), hi) — NaN inputs clamp to lo.
void EwClamp(int64_t n, const float* a, float lo, float hi, float* o);
/// o[i] = g[i] * (x[i] > 0 ? 1 : 0) — Relu's backward, bitwise g times the
/// 0/1 mask (-0 from negative g, NaN from ±inf or NaN g where it is 0).
void EwReluGrad(int64_t n, const float* g, const float* x, float* o);
/// o[i] = g[i] * (lo < x[i] < hi ? 1 : 0) — Clamp's backward, same
/// multiply as EwReluGrad.
void EwClampGrad(int64_t n, const float* g, const float* x, float lo,
                 float hi, float* o);

// Optimizer per-tensor update spans (optim/optimizer.cc). Weight decay
// folds into the gradient via fused multiply-add, matching the lane op.

/// v = momentum*v + (wd*x + g); x -= lr*v.
void SgdMomentum(int64_t n, float lr, float momentum, float wd,
                 const float* g, float* v, float* x);
/// x -= lr * (wd*x + g).
void SgdPlain(int64_t n, float lr, float wd, const float* g, float* x);
/// Adam moment updates + bias-corrected step (bc1/bc2 precomputed).
void Adam(int64_t n, float lr, float b1, float b2, float eps, float wd,
          float bc1, float bc2, const float* g, float* m, float* v, float* x);
/// a += g²; x -= lr*g / (sqrt(a) + eps).
void Adagrad(int64_t n, float lr, float eps, const float* g, float* a,
             float* x);

}  // namespace vec
}  // namespace mocograd

#endif  // MOCOGRAD_BASE_VEC_OPS_H_
