#ifndef MOCOGRAD_BASE_VEC_KERNELS_IMPL_H_
#define MOCOGRAD_BASE_VEC_KERNELS_IMPL_H_

// Kernel bodies behind the VecKernels table (base/vec_kernels.h),
// templated on a base/simd.h backend tag. Included ONLY by the per-tier
// TUs (base/vec_kernels_tier_*.cc), each of which instantiates
// MakeVecKernels<B> for exactly one backend.
//
// Everything lives in an unnamed namespace on purpose: the tier TUs are
// compiled with per-file ISA flags, and internal linkage guarantees each
// TU keeps its own copies — the linker can never substitute a copy built
// with wider ISA flags into a baseline caller (the classic one-definition
// trap of multi-ISA builds).
//
// The arithmetic here is the determinism contract: 8-lane blocks with a
// scalar tail performing the identical per-element operations, explicit
// MulAdd where lanes fuse, compare-select Max/Min. Any edit must keep
// every tier bit-identical (tests/integration/simd_determinism_test.cc).

#include <cstdint>

#include "base/simd.h"
#include "base/vec_kernels.h"

namespace mocograd {
namespace vec {
namespace {

// MG_HOT_PATH — every kernel below runs on the per-step steady state;
// mg_analyze enforces that no heap allocation or container growth appears
// before the matching end marker (docs/CORRECTNESS.md).

// ---------------------------------------------------------------------------
// Surgery / reduction spans (contracts in base/vec_ops.h).
// ---------------------------------------------------------------------------

// Reduction core shared by DotF64/SumF64: `step_fn(i, lo, hi)` folds one
// 8-float step (already widened to two F64x4) into the accumulator pair,
// `tail_fn(s, i)` folds one trailing element into the running double. The
// lane decomposition is anchored at element 0 of the span, so a given
// (pointer, n) always reduces in the same order.
template <typename B, typename StepFn, typename TailFn>
double ReduceF64T(int64_t n, StepFn step_fn, TailFn tail_fn) {
  using F64 = typename B::F64;
  F64 acc_lo = F64::Zero();
  F64 acc_hi = F64::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) step_fn(i, &acc_lo, &acc_hi);
  double s = ReduceAdd(acc_lo + acc_hi);
  for (; i < n; ++i) s = tail_fn(s, i);
  return s;
}

template <typename B>
void AxpyT(int64_t n, float alpha, const float* x, float* y) {
  using F32 = typename B::F32;
  const F32 va = F32::Broadcast(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    MulAdd(va, F32::Load(x + i), F32::Load(y + i)).Store(y + i);
  }
  for (; i < n; ++i) y[i] = simd::MulAdd(alpha, x[i], y[i]);
}

template <typename B>
void AddT(int64_t n, const float* x, float* y) {
  using F32 = typename B::F32;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    (F32::Load(y + i) + F32::Load(x + i)).Store(y + i);
  }
  for (; i < n; ++i) y[i] += x[i];
}

template <typename B>
void ScaleT(int64_t n, float alpha, float* y) {
  using F32 = typename B::F32;
  const F32 va = F32::Broadcast(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    (F32::Load(y + i) * va).Store(y + i);
  }
  for (; i < n; ++i) y[i] *= alpha;
}

template <typename B>
void EmaT(int64_t n, float beta, const float* g, float* m) {
  using F32 = typename B::F32;
  const float omb = 1.0f - beta;
  const F32 vb = F32::Broadcast(beta);
  const F32 vomb = F32::Broadcast(omb);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    MulAdd(vb, F32::Load(m + i), vomb * F32::Load(g + i)).Store(m + i);
  }
  for (; i < n; ++i) m[i] = simd::MulAdd(beta, m[i], omb * g[i]);
}

template <typename B>
double DotF64T(int64_t n, const float* a, const float* b) {
  using F32 = typename B::F32;
  using F64 = typename B::F64;
  return ReduceF64T<B>(
      n,
      [&](int64_t i, F64* lo, F64* hi) {
        const F32 va = F32::Load(a + i);
        const F32 vb = F32::Load(b + i);
        *lo = MulAdd(CvtLo(va), CvtLo(vb), *lo);
        *hi = MulAdd(CvtHi(va), CvtHi(vb), *hi);
      },
      [&](double s, int64_t i) {
        return simd::MulAdd(static_cast<double>(a[i]),
                            static_cast<double>(b[i]), s);
      });
}

template <typename B>
double SumF64T(int64_t n, const float* a) {
  using F32 = typename B::F32;
  using F64 = typename B::F64;
  return ReduceF64T<B>(
      n,
      [&](int64_t i, F64* lo, F64* hi) {
        const F32 va = F32::Load(a + i);
        *lo = *lo + CvtLo(va);
        *hi = *hi + CvtHi(va);
      },
      [&](double s, int64_t i) { return s + static_cast<double>(a[i]); });
}

// W pairs of one widened sub-tile of w columns: row `a` against the W
// consecutive rows (w doubles apart) starting at `b`, continuing the lo/hi
// accumulator pairs stored at p[8q .. 8q + 7]. W is a compile-time register
// block, so the accumulators stay in registers across the sub-tile.
template <typename F64, int W>
void GramPairsT(const double* a, const double* b, int64_t w, double* p) {
  F64 lo[W], hi[W];
  for (int q = 0; q < W; ++q) {
    lo[q] = F64::Load(p + 8 * q);
    hi[q] = F64::Load(p + 8 * q + 4);
  }
  for (int64_t c = 0; c < w; c += 8) {
    const F64 alo = F64::Load(a + c);
    const F64 ahi = F64::Load(a + c + 4);
    for (int q = 0; q < W; ++q) {
      lo[q] = MulAdd(alo, F64::Load(b + q * w + c), lo[q]);
      hi[q] = MulAdd(ahi, F64::Load(b + q * w + c + 4), hi[q]);
    }
  }
  for (int q = 0; q < W; ++q) {
    lo[q].Store(p + 8 * q);
    hi[q].Store(p + 8 * q + 4);
  }
}

// Gram block of k rows over one span of n columns: out[i*k + j] =
// DotF64T(n, rows[i], rows[j]) bit for bit, for every i in [row_begin,
// row_end) and j in [i, k); other entries of out are left alone. Each pair
// keeps DotF64T's lo/hi accumulator pair across the column sub-tiles
// (8-float steps in column order), then finishes with the same
// ReduceAdd(lo + hi) and sequential tail, so tiling and the 4-wide j
// blocking change the loop order only, never a pair's summation order. A
// sub-tile of rows [row_begin, k) is widened to double once and reloaded
// for every pair: CvtLo/CvtHi are exact, so the accumulators see the same
// operands DotF64T converts in registers. `scratch` holds
// GramF64ScratchDoubles(k, row_begin, row_end) doubles (base/vec_ops.h).
template <typename B>
void GramF64T(int k, int row_begin, int row_end, const float* const* rows,
              int64_t n, double* scratch, double* out) {
  using F32 = typename B::F32;
  using F64 = typename B::F64;
  const int span = k - row_begin;  // rows any pair of the stripe reads
  const int64_t n8 = n & ~int64_t{7};
  const int64_t tile = GramTileCols(span);
  double* acc = scratch;  // lo[4], hi[4] per (i, j)
  double* wide = scratch + int64_t{8} * (row_end - row_begin) * k;
  auto acc_at = [&](int i, int j) {
    return acc + (static_cast<int64_t>(i - row_begin) * k + j) * 8;
  };
  for (int i = row_begin; i < row_end; ++i) {
    for (int j = i; j < k; ++j) {
      F64::Zero().Store(acc_at(i, j));
      F64::Zero().Store(acc_at(i, j) + 4);
    }
  }
  for (int64_t c0 = 0; c0 < n8; c0 += tile) {
    const int64_t w = n8 - c0 < tile ? n8 - c0 : tile;
    for (int r = 0; r < span; ++r) {
      const float* src = rows[row_begin + r] + c0;
      double* dst = wide + r * w;
      for (int64_t c = 0; c < w; c += 8) {
        const F32 v = F32::Load(src + c);
        CvtLo(v).Store(dst + c);
        CvtHi(v).Store(dst + c + 4);
      }
    }
    for (int i = row_begin; i < row_end; ++i) {
      const double* a = wide + (i - row_begin) * w;
      int j = i;
      for (; j + 4 <= k; j += 4) {
        GramPairsT<F64, 4>(a, wide + (j - row_begin) * w, w, acc_at(i, j));
      }
      for (; j < k; ++j) {
        GramPairsT<F64, 1>(a, wide + (j - row_begin) * w, w, acc_at(i, j));
      }
    }
  }
  for (int i = row_begin; i < row_end; ++i) {
    const float* a = rows[i];
    for (int j = i; j < k; ++j) {
      const float* b = rows[j];
      const double* p = acc_at(i, j);
      double s = ReduceAdd(F64::Load(p) + F64::Load(p + 4));
      for (int64_t c = n8; c < n; ++c) {
        s = simd::MulAdd(static_cast<double>(a[c]), static_cast<double>(b[c]),
                         s);
      }
      out[static_cast<int64_t>(i) * k + j] = s;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise spans (tensor/ops.cc). Each applies one generic functor —
// valid on both float and 8-lane operands — in 8-lane blocks with a scalar
// tail, so per-element results never depend on lane grouping.
// ---------------------------------------------------------------------------

template <typename B, typename Fn>
void EwBinarySpanT(int64_t n, const float* a, const float* b, float* o,
                   Fn fn) {
  using F32 = typename B::F32;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    fn(F32::Load(a + i), F32::Load(b + i)).Store(o + i);
  }
  for (; i < n; ++i) o[i] = fn(a[i], b[i]);
}

template <typename B, typename Fn>
void EwUnarySpanT(int64_t n, const float* a, float* o, Fn fn) {
  using F32 = typename B::F32;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) fn(F32::Load(a + i)).Store(o + i);
  for (; i < n; ++i) o[i] = fn(a[i]);
}

template <typename B>
void EwAddT(int64_t n, const float* a, const float* b, float* o) {
  EwBinarySpanT<B>(n, a, b, o, [](auto x, auto y) { return x + y; });
}
template <typename B>
void EwSubT(int64_t n, const float* a, const float* b, float* o) {
  EwBinarySpanT<B>(n, a, b, o, [](auto x, auto y) { return x - y; });
}
template <typename B>
void EwMulT(int64_t n, const float* a, const float* b, float* o) {
  EwBinarySpanT<B>(n, a, b, o, [](auto x, auto y) { return x * y; });
}
template <typename B>
void EwDivT(int64_t n, const float* a, const float* b, float* o) {
  EwBinarySpanT<B>(n, a, b, o, [](auto x, auto y) { return x / y; });
}
template <typename B>
void EwMaximumT(int64_t n, const float* a, const float* b, float* o) {
  // Max(y, x): second operand (a) wins on unordered — see vec_kernels.h.
  EwBinarySpanT<B>(n, a, b, o,
                   [](auto x, auto y) { return simd::Max(y, x); });
}

template <typename B>
void EwAddScalarT(int64_t n, const float* a, float s, float* o) {
  using F32 = typename B::F32;
  const F32 vs = F32::Broadcast(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) (F32::Load(a + i) + vs).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] + s;
}
template <typename B>
void EwMulScalarT(int64_t n, const float* a, float s, float* o) {
  using F32 = typename B::F32;
  const F32 vs = F32::Broadcast(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) (F32::Load(a + i) * vs).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] * s;
}

template <typename B>
void EwNegT(int64_t n, const float* a, float* o) {
  EwUnarySpanT<B>(n, a, o, [](auto x) { return simd::Neg(x); });
}
template <typename B>
void EwSqrtT(int64_t n, const float* a, float* o) {
  EwUnarySpanT<B>(n, a, o, [](auto x) { return simd::Sqrt(x); });
}
template <typename B>
void EwAbsT(int64_t n, const float* a, float* o) {
  EwUnarySpanT<B>(n, a, o, [](auto x) { return simd::Abs(x); });
}
template <typename B>
void EwReluT(int64_t n, const float* a, float* o) {
  using F32 = typename B::F32;
  const F32 vz = F32::Zero();
  int64_t i = 0;
  // Max(x, 0) = (x > 0) ? x : 0 — NaN inputs map to 0.
  for (; i + 8 <= n; i += 8) simd::Max(F32::Load(a + i), vz).Store(o + i);
  for (; i < n; ++i) o[i] = simd::Max(a[i], 0.0f);
}
template <typename B>
void EwClampT(int64_t n, const float* a, float lo, float hi, float* o) {
  using F32 = typename B::F32;
  const F32 vlo = F32::Broadcast(lo);
  const F32 vhi = F32::Broadcast(hi);
  int64_t i = 0;
  // Min(Max(x, lo), hi): NaN x clamps to lo.
  for (; i + 8 <= n; i += 8) {
    simd::Min(simd::Max(F32::Load(a + i), vlo), vhi).Store(o + i);
  }
  for (; i < n; ++i) o[i] = simd::Min(simd::Max(a[i], lo), hi);
}
// Activation backward: g times the 0/1 derivative mask as a real multiply,
// so each element is bitwise tops::Mul(g, mask) — negative g gives -0, and
// ±inf or NaN g gives NaN where the mask is 0.
template <typename B>
void EwReluGradT(int64_t n, const float* g, const float* x, float* o) {
  using F32 = typename B::F32;
  const F32 vz = F32::Zero();
  const F32 v1 = F32::Broadcast(1.0f);
  int64_t i = 0;
  // mask = (x > 0) ? 1 : 0 — NaN x gives 0.
  for (; i + 8 <= n; i += 8) {
    (F32::Load(g + i) * simd::SelectGt(F32::Load(x + i), vz, v1, vz))
        .Store(o + i);
  }
  for (; i < n; ++i) o[i] = g[i] * simd::SelectGt(x[i], 0.0f, 1.0f, 0.0f);
}
template <typename B>
void EwClampGradT(int64_t n, const float* g, const float* x, float lo,
                  float hi, float* o) {
  using F32 = typename B::F32;
  const F32 vz = F32::Zero();
  const F32 v1 = F32::Broadcast(1.0f);
  const F32 vlo = F32::Broadcast(lo);
  const F32 vhi = F32::Broadcast(hi);
  int64_t i = 0;
  // mask = (x > lo && hi > x) ? 1 : 0 — NaN x gives 0.
  for (; i + 8 <= n; i += 8) {
    const F32 vx = F32::Load(x + i);
    const F32 mask =
        simd::SelectGt(vx, vlo, simd::SelectGt(vhi, vx, v1, vz), vz);
    (F32::Load(g + i) * mask).Store(o + i);
  }
  for (; i < n; ++i) {
    const float mask = simd::SelectGt(
        x[i], lo, simd::SelectGt(hi, x[i], 1.0f, 0.0f), 0.0f);
    o[i] = g[i] * mask;
  }
}

// ---------------------------------------------------------------------------
// Optimizer per-tensor update spans (optim/optimizer.cc). Weight decay
// folds into the gradient with a fused multiply-add, matching the lane op.
// ---------------------------------------------------------------------------

template <typename B>
void SgdMomentumT(int64_t n, float lr, float momentum, float wd,
                  const float* g, float* v, float* x) {
  using F32 = typename B::F32;
  const F32 vlr = F32::Broadcast(lr);
  const F32 vmom = F32::Broadcast(momentum);
  const F32 vwd = F32::Broadcast(wd);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const F32 xx = F32::Load(x + j);
    const F32 grad = MulAdd(vwd, xx, F32::Load(g + j));
    const F32 vel = MulAdd(vmom, F32::Load(v + j), grad);
    vel.Store(v + j);
    (xx - vlr * vel).Store(x + j);
  }
  for (; j < n; ++j) {
    const float grad = simd::MulAdd(wd, x[j], g[j]);
    v[j] = simd::MulAdd(momentum, v[j], grad);
    x[j] -= lr * v[j];
  }
}

template <typename B>
void SgdPlainT(int64_t n, float lr, float wd, const float* g, float* x) {
  using F32 = typename B::F32;
  const F32 vlr = F32::Broadcast(lr);
  const F32 vwd = F32::Broadcast(wd);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const F32 xx = F32::Load(x + j);
    const F32 grad = MulAdd(vwd, xx, F32::Load(g + j));
    (xx - vlr * grad).Store(x + j);
  }
  for (; j < n; ++j) {
    const float grad = simd::MulAdd(wd, x[j], g[j]);
    x[j] -= lr * grad;
  }
}

template <typename B>
void AdamT(int64_t n, float lr, float b1, float b2, float eps, float wd,
           float bc1, float bc2, const float* g, float* m, float* v,
           float* x) {
  using F32 = typename B::F32;
  const F32 vlr = F32::Broadcast(lr);
  const F32 vb1 = F32::Broadcast(b1);
  const F32 vb2 = F32::Broadcast(b2);
  const F32 vomb1 = F32::Broadcast(1.0f - b1);
  const F32 vomb2 = F32::Broadcast(1.0f - b2);
  const F32 veps = F32::Broadcast(eps);
  const F32 vwd = F32::Broadcast(wd);
  const F32 vbc1 = F32::Broadcast(bc1);
  const F32 vbc2 = F32::Broadcast(bc2);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const F32 xx = F32::Load(x + j);
    const F32 grad = MulAdd(vwd, xx, F32::Load(g + j));
    const F32 mm = MulAdd(vb1, F32::Load(m + j), vomb1 * grad);
    const F32 vv = MulAdd(vb2, F32::Load(v + j), vomb2 * (grad * grad));
    mm.Store(m + j);
    vv.Store(v + j);
    const F32 mhat = mm / vbc1;
    const F32 vhat = vv / vbc2;
    (xx - (vlr * mhat) / (Sqrt(vhat) + veps)).Store(x + j);
  }
  for (; j < n; ++j) {
    const float grad = simd::MulAdd(wd, x[j], g[j]);
    m[j] = simd::MulAdd(b1, m[j], (1.0f - b1) * grad);
    v[j] = simd::MulAdd(b2, v[j], (1.0f - b2) * (grad * grad));
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    x[j] -= (lr * mhat) / (simd::Sqrt(vhat) + eps);
  }
}

template <typename B>
void AdagradT(int64_t n, float lr, float eps, const float* g, float* a,
              float* x) {
  using F32 = typename B::F32;
  const F32 vlr = F32::Broadcast(lr);
  const F32 veps = F32::Broadcast(eps);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const F32 gg = F32::Load(g + j);
    const F32 acc = MulAdd(gg, gg, F32::Load(a + j));
    acc.Store(a + j);
    (F32::Load(x + j) - (vlr * gg) / (Sqrt(acc) + veps)).Store(x + j);
  }
  for (; j < n; ++j) {
    a[j] = simd::MulAdd(g[j], g[j], a[j]);
    x[j] -= (lr * g[j]) / (simd::Sqrt(a[j]) + eps);
  }
}

// MG_HOT_PATH_END

template <typename B>
VecKernels MakeVecKernels() {
  VecKernels k;
  k.name = B::kName;
  k.axpy = &AxpyT<B>;
  k.add = &AddT<B>;
  k.scale = &ScaleT<B>;
  k.ema = &EmaT<B>;
  k.dot_f64 = &DotF64T<B>;
  k.sum_f64 = &SumF64T<B>;
  k.gram_f64 = &GramF64T<B>;
  k.ew_add = &EwAddT<B>;
  k.ew_sub = &EwSubT<B>;
  k.ew_mul = &EwMulT<B>;
  k.ew_div = &EwDivT<B>;
  k.ew_maximum = &EwMaximumT<B>;
  k.ew_add_scalar = &EwAddScalarT<B>;
  k.ew_mul_scalar = &EwMulScalarT<B>;
  k.ew_neg = &EwNegT<B>;
  k.ew_sqrt = &EwSqrtT<B>;
  k.ew_abs = &EwAbsT<B>;
  k.ew_relu = &EwReluT<B>;
  k.ew_clamp = &EwClampT<B>;
  k.ew_relu_grad = &EwReluGradT<B>;
  k.ew_clamp_grad = &EwClampGradT<B>;
  k.sgd_momentum = &SgdMomentumT<B>;
  k.sgd_plain = &SgdPlainT<B>;
  k.adam = &AdamT<B>;
  k.adagrad = &AdagradT<B>;
  return k;
}

}  // namespace
}  // namespace vec
}  // namespace mocograd

#endif  // MOCOGRAD_BASE_VEC_KERNELS_IMPL_H_
