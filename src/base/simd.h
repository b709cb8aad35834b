#ifndef MOCOGRAD_BASE_SIMD_H_
#define MOCOGRAD_BASE_SIMD_H_

// Portable fixed-width SIMD layer: an 8-lane f32 vector (F32x8) and a
// 4-lane f64 accumulator (F64x4) with AVX-512 / AVX2+FMA / SSE2 backends
// (x86-64), a NEON backend (aarch64) and a scalar fallback that performs
// the *same lane-blocked arithmetic in the same order*. Every operation
// exposed here is exactly rounded per IEEE-754 (add/sub/mul/div/sqrt,
// fused multiply-add) or a pure bit operation (abs/neg) or a
// comparison-select (Max/Min), so a kernel written against this header
// produces bit-identical results on every backend — across ISA tiers,
// across the MOCOGRAD_SIMD_ISA runtime ceiling, and across
// thread counts (lane blocking never crosses the fixed reduction blocks of
// tensor/ops.cc). See docs/SIMD.md for the full contract and how to add a
// backend.
//
// Which backends exist in a given translation unit depends on the flags
// that TU is compiled with: the per-tier kernel TUs
// (base/vec_kernels_tier_*.cc, tensor/gemm_kernels_tier_*.cc) get per-file
// -m flags from the build, while every other TU sees only the x86-64
// baseline (SSE2). Hot kernels therefore never rely on this header's
// in-TU backend selection — they are routed at runtime through the
// per-tier function tables selected by ActiveTier() below.
//
// Semantics pinned down for cross-backend identity:
//  - MulAdd(a, b, c) = a*b + c with a single rounding (hardware FMA on
//    AVX2/AVX-512/NEON; std::fma on the scalar and SSE paths, which libm
//    rounds correctly — the SSE tier is a compatibility tier for pre-AVX2
//    hardware, not a fast one).
//  - Max(a, b) = (a > b) ? a : b and Min(a, b) = (a < b) ? a : b, i.e. the
//    second operand wins on unordered comparisons — exactly x86
//    MAXPS/MINPS; the NEON backend uses compare+select (not vmaxq, which
//    differs on NaN).
//  - SelectGt(a, b, x, y) = (a > b) ? x : y per lane, an ordered compare
//    (false when either of a, b is NaN) followed by a bit select.
//  - Abs/Neg clear/flip the sign bit only (NaN payloads preserved).
//  - LoadBf16 widens 8 bf16 values to f32 by shifting into the high half —
//    exact on every backend (base/bf16.h).
//
// The build keeps `-ffp-contract=off` so the compiler never fuses scalar
// a*b+c expressions behind our back — fusion happens only where a kernel
// asks for MulAdd explicitly.

#include <cmath>
#include <cstdint>
#include <cstring>

#include "base/bf16.h"

#if defined(__SSE2__) || defined(_M_X64)
#define MOCOGRAD_SIMD_SSE 1
#include <immintrin.h>
#endif
#if defined(__AVX2__) && defined(__FMA__)
#define MOCOGRAD_SIMD_AVX2 1
#endif
#if defined(MOCOGRAD_SIMD_AVX2) && defined(__AVX512F__) && \
    defined(__AVX512VL__) && defined(__AVX512DQ__) && defined(__AVX512BW__)
#define MOCOGRAD_SIMD_AVX512 1
#endif
#if !defined(MOCOGRAD_SIMD_SSE) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define MOCOGRAD_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace mocograd {
namespace simd {

// ---------------------------------------------------------------------------
// Scalar float helpers mirroring the lane semantics above. Kernels use these
// for the < 8-element tails so tail elements get the exact same arithmetic
// as full lanes, on every backend.
// ---------------------------------------------------------------------------

inline float MulAdd(float a, float b, float c) { return std::fmaf(a, b, c); }
inline double MulAdd(double a, double b, double c) { return std::fma(a, b, c); }
inline float Max(float a, float b) { return a > b ? a : b; }
inline float Min(float a, float b) { return a < b ? a : b; }
inline float Abs(float a) { return std::fabs(a); }
inline float Sqrt(float a) { return std::sqrt(a); }
inline float Neg(float a) { return -a; }
inline float SelectGt(float a, float b, float x, float y) {
  return a > b ? x : y;
}

// ---------------------------------------------------------------------------
// Scalar fallback backend: 8 explicit lanes, operated on in lane order.
// ---------------------------------------------------------------------------

struct F32x8Scalar {
  float lane[8];

  static F32x8Scalar Zero() { return Broadcast(0.0f); }
  static F32x8Scalar Broadcast(float v) {
    F32x8Scalar r;
    for (int i = 0; i < 8; ++i) r.lane[i] = v;
    return r;
  }
  static F32x8Scalar Load(const float* p) {
    F32x8Scalar r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  /// 8 bf16 values widened to f32 (exact).
  static F32x8Scalar LoadBf16(const uint16_t* p) {
    F32x8Scalar r;
    for (int i = 0; i < 8; ++i) r.lane[i] = F32FromBf16(p[i]);
    return r;
  }
  void Store(float* p) const { std::memcpy(p, lane, sizeof(lane)); }
};

inline F32x8Scalar operator+(F32x8Scalar a, F32x8Scalar b) {
  for (int i = 0; i < 8; ++i) a.lane[i] += b.lane[i];
  return a;
}
inline F32x8Scalar operator-(F32x8Scalar a, F32x8Scalar b) {
  for (int i = 0; i < 8; ++i) a.lane[i] -= b.lane[i];
  return a;
}
inline F32x8Scalar operator*(F32x8Scalar a, F32x8Scalar b) {
  for (int i = 0; i < 8; ++i) a.lane[i] *= b.lane[i];
  return a;
}
inline F32x8Scalar operator/(F32x8Scalar a, F32x8Scalar b) {
  for (int i = 0; i < 8; ++i) a.lane[i] /= b.lane[i];
  return a;
}
inline F32x8Scalar MulAdd(F32x8Scalar a, F32x8Scalar b, F32x8Scalar c) {
  for (int i = 0; i < 8; ++i) c.lane[i] = std::fmaf(a.lane[i], b.lane[i], c.lane[i]);
  return c;
}
inline F32x8Scalar Max(F32x8Scalar a, F32x8Scalar b) {
  for (int i = 0; i < 8; ++i) b.lane[i] = Max(a.lane[i], b.lane[i]);
  return b;
}
inline F32x8Scalar Min(F32x8Scalar a, F32x8Scalar b) {
  for (int i = 0; i < 8; ++i) b.lane[i] = Min(a.lane[i], b.lane[i]);
  return b;
}
inline F32x8Scalar SelectGt(F32x8Scalar a, F32x8Scalar b, F32x8Scalar x,
                            F32x8Scalar y) {
  for (int i = 0; i < 8; ++i) {
    y.lane[i] = SelectGt(a.lane[i], b.lane[i], x.lane[i], y.lane[i]);
  }
  return y;
}
inline F32x8Scalar Abs(F32x8Scalar a) {
  for (int i = 0; i < 8; ++i) a.lane[i] = std::fabs(a.lane[i]);
  return a;
}
inline F32x8Scalar Neg(F32x8Scalar a) {
  for (int i = 0; i < 8; ++i) a.lane[i] = -a.lane[i];
  return a;
}
inline F32x8Scalar Sqrt(F32x8Scalar a) {
  for (int i = 0; i < 8; ++i) a.lane[i] = std::sqrt(a.lane[i]);
  return a;
}

struct F64x4Scalar {
  double lane[4];

  static F64x4Scalar Zero() {
    F64x4Scalar r;
    for (int i = 0; i < 4; ++i) r.lane[i] = 0.0;
    return r;
  }
  static F64x4Scalar Load(const double* p) {
    F64x4Scalar r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  void Store(double* p) const { std::memcpy(p, lane, sizeof(lane)); }
};

inline F64x4Scalar operator+(F64x4Scalar a, F64x4Scalar b) {
  for (int i = 0; i < 4; ++i) a.lane[i] += b.lane[i];
  return a;
}
inline F64x4Scalar MulAdd(F64x4Scalar a, F64x4Scalar b, F64x4Scalar c) {
  for (int i = 0; i < 4; ++i) c.lane[i] = std::fma(a.lane[i], b.lane[i], c.lane[i]);
  return c;
}
/// Lanes 0..3 of the low/high half of an 8-lane float vector, widened.
inline F64x4Scalar CvtLo(F32x8Scalar v) {
  F64x4Scalar r;
  for (int i = 0; i < 4; ++i) r.lane[i] = static_cast<double>(v.lane[i]);
  return r;
}
inline F64x4Scalar CvtHi(F32x8Scalar v) {
  F64x4Scalar r;
  for (int i = 0; i < 4; ++i) r.lane[i] = static_cast<double>(v.lane[i + 4]);
  return r;
}
/// Sequential lane sum ((l0 + l1) + l2) + l3 — the one place lane order
/// matters; every backend funnels through the same scalar adds.
inline double ReduceAdd(F64x4Scalar v) {
  return ((v.lane[0] + v.lane[1]) + v.lane[2]) + v.lane[3];
}

// ---------------------------------------------------------------------------
// SSE2 backend: two 128-bit halves per 8-lane vector. SSE has no FMA
// instruction, so MulAdd round-trips through correctly-rounded std::fma —
// bit-identical to the hardware FMA of the wider tiers, at libm-call cost.
// This is the x86-64 baseline every TU compiles against; it exists so one
// binary still runs (vectorized where the ISA allows) on pre-AVX2 fleets.
// ---------------------------------------------------------------------------

#if defined(MOCOGRAD_SIMD_SSE)

struct F32x8Sse {
  __m128 lo, hi;

  static F32x8Sse Zero() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  static F32x8Sse Broadcast(float x) { return {_mm_set1_ps(x), _mm_set1_ps(x)}; }
  static F32x8Sse Load(const float* p) {
    return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
  }
  static F32x8Sse LoadBf16(const uint16_t* p) {
    // u16 << 16 into each u32 lane: interleave below a zero half-vector.
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i z = _mm_setzero_si128();
    return {_mm_castsi128_ps(_mm_unpacklo_epi16(z, v)),
            _mm_castsi128_ps(_mm_unpackhi_epi16(z, v))};
  }
  void Store(float* p) const {
    _mm_storeu_ps(p, lo);
    _mm_storeu_ps(p + 4, hi);
  }
};

inline F32x8Sse operator+(F32x8Sse a, F32x8Sse b) {
  return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
}
inline F32x8Sse operator-(F32x8Sse a, F32x8Sse b) {
  return {_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)};
}
inline F32x8Sse operator*(F32x8Sse a, F32x8Sse b) {
  return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
}
inline F32x8Sse operator/(F32x8Sse a, F32x8Sse b) {
  return {_mm_div_ps(a.lo, b.lo), _mm_div_ps(a.hi, b.hi)};
}
inline F32x8Sse MulAdd(F32x8Sse a, F32x8Sse b, F32x8Sse c) {
  alignas(16) float la[8], lb[8], lc[8];
  a.Store(la);
  b.Store(lb);
  c.Store(lc);
  for (int i = 0; i < 8; ++i) lc[i] = std::fmaf(la[i], lb[i], lc[i]);
  return F32x8Sse::Load(lc);
}
// MAXPS/MINPS: second operand wins on unordered — matches the scalar helpers.
inline F32x8Sse Max(F32x8Sse a, F32x8Sse b) {
  return {_mm_max_ps(a.lo, b.lo), _mm_max_ps(a.hi, b.hi)};
}
inline F32x8Sse Min(F32x8Sse a, F32x8Sse b) {
  return {_mm_min_ps(a.lo, b.lo), _mm_min_ps(a.hi, b.hi)};
}
inline F32x8Sse SelectGt(F32x8Sse a, F32x8Sse b, F32x8Sse x, F32x8Sse y) {
  const __m128 mlo = _mm_cmpgt_ps(a.lo, b.lo);
  const __m128 mhi = _mm_cmpgt_ps(a.hi, b.hi);
  return {_mm_or_ps(_mm_and_ps(mlo, x.lo), _mm_andnot_ps(mlo, y.lo)),
          _mm_or_ps(_mm_and_ps(mhi, x.hi), _mm_andnot_ps(mhi, y.hi))};
}
inline F32x8Sse Abs(F32x8Sse a) {
  const __m128 mask = _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF));
  return {_mm_and_ps(a.lo, mask), _mm_and_ps(a.hi, mask)};
}
inline F32x8Sse Neg(F32x8Sse a) {
  const __m128 sign = _mm_castsi128_ps(_mm_set1_epi32(0x80000000u));
  return {_mm_xor_ps(a.lo, sign), _mm_xor_ps(a.hi, sign)};
}
inline F32x8Sse Sqrt(F32x8Sse a) {
  return {_mm_sqrt_ps(a.lo), _mm_sqrt_ps(a.hi)};
}

struct F64x4Sse {
  __m128d lo, hi;
  static F64x4Sse Zero() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  static F64x4Sse Load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  void Store(double* p) const {
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
  }
};

inline F64x4Sse operator+(F64x4Sse a, F64x4Sse b) {
  return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
}
inline F64x4Sse MulAdd(F64x4Sse a, F64x4Sse b, F64x4Sse c) {
  alignas(16) double la[4], lb[4], lc[4];
  _mm_storeu_pd(la, a.lo);
  _mm_storeu_pd(la + 2, a.hi);
  _mm_storeu_pd(lb, b.lo);
  _mm_storeu_pd(lb + 2, b.hi);
  _mm_storeu_pd(lc, c.lo);
  _mm_storeu_pd(lc + 2, c.hi);
  for (int i = 0; i < 4; ++i) lc[i] = std::fma(la[i], lb[i], lc[i]);
  return {_mm_loadu_pd(lc), _mm_loadu_pd(lc + 2)};
}
inline F64x4Sse CvtLo(F32x8Sse v) {
  return {_mm_cvtps_pd(v.lo), _mm_cvtps_pd(_mm_movehl_ps(v.lo, v.lo))};
}
inline F64x4Sse CvtHi(F32x8Sse v) {
  return {_mm_cvtps_pd(v.hi), _mm_cvtps_pd(_mm_movehl_ps(v.hi, v.hi))};
}
inline double ReduceAdd(F64x4Sse v) {
  double lane[4];
  _mm_storeu_pd(lane, v.lo);
  _mm_storeu_pd(lane + 2, v.hi);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

#endif  // MOCOGRAD_SIMD_SSE

// ---------------------------------------------------------------------------
// AVX2 + FMA backend.
// ---------------------------------------------------------------------------

#if defined(MOCOGRAD_SIMD_AVX2)

struct F32x8Avx2 {
  __m256 v;

  static F32x8Avx2 Zero() { return {_mm256_setzero_ps()}; }
  static F32x8Avx2 Broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static F32x8Avx2 Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static F32x8Avx2 LoadBf16(const uint16_t* p) {
    const __m128i v16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return {_mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(v16), 16))};
  }
  void Store(float* p) const { _mm256_storeu_ps(p, v); }
};

inline F32x8Avx2 operator+(F32x8Avx2 a, F32x8Avx2 b) { return {_mm256_add_ps(a.v, b.v)}; }
inline F32x8Avx2 operator-(F32x8Avx2 a, F32x8Avx2 b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline F32x8Avx2 operator*(F32x8Avx2 a, F32x8Avx2 b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline F32x8Avx2 operator/(F32x8Avx2 a, F32x8Avx2 b) { return {_mm256_div_ps(a.v, b.v)}; }
inline F32x8Avx2 MulAdd(F32x8Avx2 a, F32x8Avx2 b, F32x8Avx2 c) {
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
}
// MAXPS/MINPS: second operand wins on unordered — matches the scalar helpers.
inline F32x8Avx2 Max(F32x8Avx2 a, F32x8Avx2 b) { return {_mm256_max_ps(a.v, b.v)}; }
inline F32x8Avx2 Min(F32x8Avx2 a, F32x8Avx2 b) { return {_mm256_min_ps(a.v, b.v)}; }
inline F32x8Avx2 SelectGt(F32x8Avx2 a, F32x8Avx2 b, F32x8Avx2 x,
                          F32x8Avx2 y) {
  return {_mm256_blendv_ps(y.v, x.v, _mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ))};
}
inline F32x8Avx2 Abs(F32x8Avx2 a) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  return {_mm256_and_ps(a.v, mask)};
}
inline F32x8Avx2 Neg(F32x8Avx2 a) {
  const __m256 sign = _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000u));
  return {_mm256_xor_ps(a.v, sign)};
}
inline F32x8Avx2 Sqrt(F32x8Avx2 a) { return {_mm256_sqrt_ps(a.v)}; }

struct F64x4Avx2 {
  __m256d v;
  static F64x4Avx2 Zero() { return {_mm256_setzero_pd()}; }
  static F64x4Avx2 Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
};

inline F64x4Avx2 operator+(F64x4Avx2 a, F64x4Avx2 b) { return {_mm256_add_pd(a.v, b.v)}; }
inline F64x4Avx2 MulAdd(F64x4Avx2 a, F64x4Avx2 b, F64x4Avx2 c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
inline F64x4Avx2 CvtLo(F32x8Avx2 v) {
  return {_mm256_cvtps_pd(_mm256_castps256_ps128(v.v))};
}
inline F64x4Avx2 CvtHi(F32x8Avx2 v) {
  return {_mm256_cvtps_pd(_mm256_extractf128_ps(v.v, 1))};
}
inline double ReduceAdd(F64x4Avx2 v) {
  double lane[4];
  _mm256_storeu_pd(lane, v.v);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

#endif  // MOCOGRAD_SIMD_AVX2

// ---------------------------------------------------------------------------
// AVX-512 additions. The AVX-512 tier keeps the 8-lane F32/F64 types (the
// same F32x8Avx2/F64x4Avx2 structs, emitted as EVEX-encoded code in the
// avx512 TUs) so every reduction and elementwise loop stays bit-identical
// to the other tiers. The only 512-bit type is F32x16, used where a kernel
// can process two adjacent 8-lane groups whose arithmetic chains are
// per-lane independent (the GEMM microkernel's 16-column tiles) — lane j of
// an F32x16 computes exactly what lane j%8 of the corresponding F32x8 pair
// would, so results cannot differ.
// ---------------------------------------------------------------------------

#if defined(MOCOGRAD_SIMD_AVX512)

struct F32x16 {
  __m512 v;

  static F32x16 Zero() { return {_mm512_setzero_ps()}; }
  static F32x16 Broadcast(float x) { return {_mm512_set1_ps(x)}; }
  static F32x16 Load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static F32x16 LoadBf16(const uint16_t* p) {
    // The all-lanes zero-masking forms: same bits as the unmasked
    // intrinsics, whose GCC definitions start from an undefined vector.
    constexpr __mmask16 kAll = 0xFFFF;
    const __m256i v16 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return {_mm512_castsi512_ps(_mm512_maskz_slli_epi32(
        kAll, _mm512_maskz_cvtepu16_epi32(kAll, v16), 16))};
  }
  void Store(float* p) const { _mm512_storeu_ps(p, v); }
};

inline F32x16 operator+(F32x16 a, F32x16 b) { return {_mm512_add_ps(a.v, b.v)}; }
inline F32x16 operator-(F32x16 a, F32x16 b) { return {_mm512_sub_ps(a.v, b.v)}; }
inline F32x16 operator*(F32x16 a, F32x16 b) { return {_mm512_mul_ps(a.v, b.v)}; }
inline F32x16 MulAdd(F32x16 a, F32x16 b, F32x16 c) {
  return {_mm512_fmadd_ps(a.v, b.v, c.v)};
}

#endif  // MOCOGRAD_SIMD_AVX512

// ---------------------------------------------------------------------------
// NEON backend (aarch64: FMA, exact-rounded div/sqrt, f64 vectors).
// ---------------------------------------------------------------------------

#if defined(MOCOGRAD_SIMD_NEON)

struct F32x8Neon {
  float32x4_t lo, hi;

  static F32x8Neon Zero() { return {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)}; }
  static F32x8Neon Broadcast(float x) { return {vdupq_n_f32(x), vdupq_n_f32(x)}; }
  static F32x8Neon Load(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  // Widen 8 bf16 values to f32 (exact): shift each 16-bit pattern into the
  // high half of a 32-bit lane.
  static F32x8Neon LoadBf16(const uint16_t* p) {
    const uint16x8_t v = vld1q_u16(p);
    return {vreinterpretq_f32_u32(vshll_n_u16(vget_low_u16(v), 16)),
            vreinterpretq_f32_u32(vshll_n_u16(vget_high_u16(v), 16))};
  }
  void Store(float* p) const {
    vst1q_f32(p, lo);
    vst1q_f32(p + 4, hi);
  }
};

inline F32x8Neon operator+(F32x8Neon a, F32x8Neon b) {
  return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
}
inline F32x8Neon operator-(F32x8Neon a, F32x8Neon b) {
  return {vsubq_f32(a.lo, b.lo), vsubq_f32(a.hi, b.hi)};
}
inline F32x8Neon operator*(F32x8Neon a, F32x8Neon b) {
  return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
}
inline F32x8Neon operator/(F32x8Neon a, F32x8Neon b) {
  return {vdivq_f32(a.lo, b.lo), vdivq_f32(a.hi, b.hi)};
}
inline F32x8Neon MulAdd(F32x8Neon a, F32x8Neon b, F32x8Neon c) {
  return {vfmaq_f32(c.lo, a.lo, b.lo), vfmaq_f32(c.hi, a.hi, b.hi)};
}
/// Compare+select, NOT vmaxq/vminq: the contract is "(a > b) ? a : b" with
// the second operand winning on unordered, bit-identical to x86 MAXPS.
inline F32x8Neon Max(F32x8Neon a, F32x8Neon b) {
  return {vbslq_f32(vcgtq_f32(a.lo, b.lo), a.lo, b.lo),
          vbslq_f32(vcgtq_f32(a.hi, b.hi), a.hi, b.hi)};
}
inline F32x8Neon Min(F32x8Neon a, F32x8Neon b) {
  return {vbslq_f32(vcltq_f32(a.lo, b.lo), a.lo, b.lo),
          vbslq_f32(vcltq_f32(a.hi, b.hi), a.hi, b.hi)};
}
inline F32x8Neon SelectGt(F32x8Neon a, F32x8Neon b, F32x8Neon x,
                          F32x8Neon y) {
  return {vbslq_f32(vcgtq_f32(a.lo, b.lo), x.lo, y.lo),
          vbslq_f32(vcgtq_f32(a.hi, b.hi), x.hi, y.hi)};
}
inline F32x8Neon Abs(F32x8Neon a) { return {vabsq_f32(a.lo), vabsq_f32(a.hi)}; }
inline F32x8Neon Neg(F32x8Neon a) { return {vnegq_f32(a.lo), vnegq_f32(a.hi)}; }
inline F32x8Neon Sqrt(F32x8Neon a) { return {vsqrtq_f32(a.lo), vsqrtq_f32(a.hi)}; }

struct F64x4Neon {
  float64x2_t lo, hi;
  static F64x4Neon Zero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static F64x4Neon Load(const double* p) {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  void Store(double* p) const {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }
};

inline F64x4Neon operator+(F64x4Neon a, F64x4Neon b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline F64x4Neon MulAdd(F64x4Neon a, F64x4Neon b, F64x4Neon c) {
  return {vfmaq_f64(c.lo, a.lo, b.lo), vfmaq_f64(c.hi, a.hi, b.hi)};
}
inline F64x4Neon CvtLo(F32x8Neon v) {
  return {vcvt_f64_f32(vget_low_f32(v.lo)), vcvt_high_f64_f32(v.lo)};
}
inline F64x4Neon CvtHi(F32x8Neon v) {
  return {vcvt_f64_f32(vget_low_f32(v.hi)), vcvt_high_f64_f32(v.hi)};
}
inline double ReduceAdd(F64x4Neon v) {
  double lane[4];
  vst1q_f64(lane, v.lo);
  vst1q_f64(lane + 2, v.hi);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

#endif  // MOCOGRAD_SIMD_NEON

// ---------------------------------------------------------------------------
// Backend tags. One tag per kernel tier; which tags exist in a TU depends on
// that TU's compile flags (see the header comment). The per-tier kernel TUs
// instantiate their kernels against exactly one of these.
// ---------------------------------------------------------------------------

struct ScalarBackend {
  using F32 = F32x8Scalar;
  using F64 = F64x4Scalar;
  static constexpr const char* kName = "scalar";
};

#if defined(MOCOGRAD_SIMD_SSE)
struct SseBackend {
  using F32 = F32x8Sse;
  using F64 = F64x4Sse;
  static constexpr const char* kName = "sse";
};
#endif

#if defined(MOCOGRAD_SIMD_AVX2)
struct Avx2Backend {
  using F32 = F32x8Avx2;
  using F64 = F64x4Avx2;
  static constexpr const char* kName = "avx2";
};
#endif

#if defined(MOCOGRAD_SIMD_AVX512)
// 8-lane types on purpose (bit-determinism anchor); F32Wide is the opt-in
// 512-bit type for kernels whose lanes are arithmetic-independent.
struct Avx512Backend {
  using F32 = F32x8Avx2;
  using F64 = F64x4Avx2;
  using F32Wide = F32x16;
  static constexpr const char* kName = "avx512";
};
#endif

#if defined(MOCOGRAD_SIMD_NEON)
struct NeonBackend {
  using F32 = F32x8Neon;
  using F64 = F64x4Neon;
  static constexpr const char* kName = "neon";
};
#endif

// ---------------------------------------------------------------------------
// Runtime kernel-tier state (defined in base/simd.cc). The process probes
// the CPU once (base/cpu.h), intersects it with the tiers the build
// compiled, clamps by the MOCOGRAD_SIMD_ISA knob, and lands on one active
// tier. Hot kernels (base/vec_kernels.h, tensor/gemm_kernels.h) look the
// tier up per call, so tests can flip it mid-process. Every tier computes
// bit-identical results; the tier changes speed, never outputs.
// ---------------------------------------------------------------------------

/// Kernel tiers in preference order. kNeon sorts between the x86 tiers only
/// nominally — on any given host either the x86 tiers or kNeon exist, never
/// both.
enum class IsaTier : int {
  kScalar = 0,
  kSse = 1,
  kNeon = 2,
  kAvx2 = 3,
  kAvx512 = 4,
};

/// The tier hot kernels currently run on.
IsaTier ActiveTier();

/// Forces a tier (tests and benches). Clamped to the best tier the CPU and
/// build support; ignores the MOCOGRAD_SIMD_ISA env ceiling.
void SetTier(IsaTier tier);

/// "avx512" / "avx2" / "sse" / "neon" / "scalar".
const char* TierName(IsaTier tier);

/// TierName(ActiveTier()).
const char* ActiveBackendName();

}  // namespace simd
}  // namespace mocograd

#endif  // MOCOGRAD_BASE_SIMD_H_
