#include "base/simd.h"

#include <atomic>
#include <string>

#include "base/cpu.h"
#include "base/env.h"
#include "base/vec_kernels.h"

namespace mocograd {
namespace simd {

namespace {

// A tier is available when the CPU (and OS register-state support) allows
// it AND the build compiled its kernel TU — the vec table getter returning
// non-null is the build-side proof (the gemm tables are compiled under the
// identical per-file flags, so one probe covers both).
bool TierAvailable(IsaTier tier) {
  if (vec::VecKernelsForTier(tier) == nullptr) return false;
  const cpu::Features& f = cpu::GetFeatures();
  switch (tier) {
    case IsaTier::kScalar:
      return true;
    case IsaTier::kSse:
      return f.sse2;
    case IsaTier::kNeon:
      // Compiled in only on aarch64, where NEON is architecturally baseline.
      return true;
    case IsaTier::kAvx2:
      return f.avx2 && f.fma && f.os_avx;
    case IsaTier::kAvx512:
      return f.avx512f && f.avx512vl && f.avx512dq && f.avx512bw &&
             f.os_avx512;
  }
  return false;
}

// Highest available tier not above `ceiling`. The scalar floor is always
// available, so this always lands somewhere.
IsaTier ClampToAvailable(IsaTier ceiling) {
  for (int t = static_cast<int>(ceiling); t > 0; --t) {
    if (TierAvailable(static_cast<IsaTier>(t))) {
      return static_cast<IsaTier>(t);
    }
  }
  return IsaTier::kScalar;
}

// First use reads the MOCOGRAD_SIMD_ISA ceiling and lands on the best
// available tier under it. "auto", unset, or an unrecognized value mean no
// ceiling — env typos fall back silently, the same contract every other
// knob follows.
std::atomic<int>& TierState() {
  static std::atomic<int> tier([] {
    const std::string isa = GetEnvString("MOCOGRAD_SIMD_ISA", "auto");
    IsaTier ceiling = IsaTier::kAvx512;
    if (isa == "scalar") {
      ceiling = IsaTier::kScalar;
    } else if (isa == "sse") {
      ceiling = IsaTier::kSse;
    } else if (isa == "neon") {
      ceiling = IsaTier::kNeon;
    } else if (isa == "avx2") {
      ceiling = IsaTier::kAvx2;
    }
    return static_cast<int>(ClampToAvailable(ceiling));
  }());
  return tier;
}

}  // namespace

IsaTier ActiveTier() {
  return static_cast<IsaTier>(TierState().load(std::memory_order_relaxed));
}

void SetTier(IsaTier tier) {
  TierState().store(static_cast<int>(ClampToAvailable(tier)),
                    std::memory_order_relaxed);
}

const char* TierName(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return "scalar";
    case IsaTier::kSse:
      return "sse";
    case IsaTier::kNeon:
      return "neon";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const char* ActiveBackendName() { return TierName(ActiveTier()); }

}  // namespace simd
}  // namespace mocograd
