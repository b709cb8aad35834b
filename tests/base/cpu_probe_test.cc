// cpuid feature probe (base/cpu.h) and the tier policy built on it
// (base/simd.h "Runtime dispatch"): the probe must agree with the kernel's
// /proc/cpuinfo flags, and the MOCOGRAD_SIMD_ISA ceiling semantics must
// clamp-and-fall-back rather than ever selecting an unusable tier.

#include "base/cpu.h"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "base/simd.h"
#include "base/vec_kernels.h"
#include "tensor/gemm_kernels.h"

namespace mocograd {
namespace {

// Flags field of /proc/cpuinfo (first processor), or "" when unavailable
// (non-Linux or non-x86 hosts).
std::string ProcCpuinfoFlags() {
  std::ifstream in("/proc/cpuinfo");
  if (!in) return "";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0 || line.rfind("Features", 0) == 0) {
      return " " + line + " ";
    }
  }
  return "";
}

bool HasFlag(const std::string& flags, const std::string& f) {
  return flags.find(" " + f + " ") != std::string::npos ||
         flags.find(" " + f + "\n") != std::string::npos;
}

TEST(CpuProbeTest, AgreesWithProcCpuinfo) {
  const std::string flags = ProcCpuinfoFlags();
  if (flags.empty()) {
    GTEST_SKIP() << "/proc/cpuinfo flags unavailable on this host";
  }
  const cpu::Features& f = cpu::GetFeatures();
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_EQ(f.sse2, HasFlag(flags, "sse2"));
  EXPECT_EQ(f.avx2, HasFlag(flags, "avx2"));
  EXPECT_EQ(f.fma, HasFlag(flags, "fma"));
  EXPECT_EQ(f.avx512f, HasFlag(flags, "avx512f"));
  EXPECT_EQ(f.avx512vl, HasFlag(flags, "avx512vl"));
  EXPECT_EQ(f.avx512dq, HasFlag(flags, "avx512dq"));
  EXPECT_EQ(f.avx512bw, HasFlag(flags, "avx512bw"));
#else
  GTEST_SKIP() << "x86 flag comparison not applicable";
#endif
}

TEST(CpuProbeTest, OsSupportImpliesCpuSupport) {
  const cpu::Features& f = cpu::GetFeatures();
  if (f.os_avx512) {
    EXPECT_TRUE(f.os_avx);
  }
  if (f.avx2) {
    EXPECT_TRUE(f.sse2);
  }
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2) << "no AVX-512 hardware lacks AVX2";
  }
}

TEST(CpuProbeTest, ActiveTierIsUsable) {
  // Whatever tier the startup policy selected, both kernel tables must
  // exist for it and the CPU must actually support it — the selector can
  // never leave the process on a tier that would fault.
  const simd::IsaTier t = simd::ActiveTier();
  EXPECT_NE(vec::VecKernelsForTier(t), nullptr);
  EXPECT_NE(GemmKernelsForTier(t), nullptr);
  const cpu::Features& f = cpu::GetFeatures();
  switch (t) {
    case simd::IsaTier::kAvx512:
      EXPECT_TRUE(f.avx512f && f.avx512vl && f.avx512dq && f.avx512bw &&
                  f.os_avx512);
      break;
    case simd::IsaTier::kAvx2:
      EXPECT_TRUE(f.avx2 && f.fma && f.os_avx);
      break;
    case simd::IsaTier::kSse:
      EXPECT_TRUE(f.sse2);
      break;
    case simd::IsaTier::kNeon:
    case simd::IsaTier::kScalar:
      break;
  }
}

TEST(CpuProbeTest, SetTierClampsToAvailable) {
  const simd::IsaTier initial = simd::ActiveTier();
  // Requesting the widest tier lands on some available tier at or below it.
  simd::SetTier(simd::IsaTier::kAvx512);
  const simd::IsaTier best = simd::ActiveTier();
  EXPECT_NE(vec::VecKernelsForTier(best), nullptr);
  // Scalar is always grantable.
  simd::SetTier(simd::IsaTier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::IsaTier::kScalar);
  EXPECT_STREQ(simd::ActiveBackendName(), "scalar");
  // The startup tier was granted, so SetTier restores it exactly.
  simd::SetTier(initial);
  EXPECT_EQ(simd::ActiveTier(), initial);
}

TEST(CpuProbeTest, TierNamesAreStable) {
  EXPECT_STREQ(simd::TierName(simd::IsaTier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::IsaTier::kSse), "sse");
  EXPECT_STREQ(simd::TierName(simd::IsaTier::kNeon), "neon");
  EXPECT_STREQ(simd::TierName(simd::IsaTier::kAvx2), "avx2");
  EXPECT_STREQ(simd::TierName(simd::IsaTier::kAvx512), "avx512");
}

}  // namespace
}  // namespace mocograd
