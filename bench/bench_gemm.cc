// GEMM kernel benchmark: times the cache-blocked SIMD Gemm of
// tensor/gemm.cc against the naive i-k-j scalar kernel it replaced, on the
// matrix shapes the model zoo actually emits (square compute shapes, MLP
// layers, im2col'd conv layers and their backward col_grad GEMM, the m=1 /
// n=1 GEMV edges, and the in-place-B cutover shape).
//
// Methodology: every (kernel, shape) measurement runs kTrials independent
// trials and reports the best one. The box this runs on throttles
// sustained AVX work and hosts noisy neighbors; best-of-N recovers the
// kernel's actual capability rather than the scheduler's mood. Single
// trials on this machine swing by 2x.
//
// Writes BENCH_gemm.json (or argv[1]) with GFLOP/s per shape for
//   naive      — the pre-SIMD i-k-j loop, compiled without AVX so the
//                numbers reproduce the seed build's codegen,
//   scalar     — the kernel on the lane-blocked scalar backend
//                (the MOCOGRAD_SIMD_ISA=scalar tier),
//   simd       — the kernel on the widest ISA tier the runtime dispatch
//                granted at startup (recorded as "isa_tier"; cap it with
//                MOCOGRAD_SIMD_ISA to benchmark a narrower tier),
//   simd_t4    — the hardware backend with a 4-thread pool (the pool
//                sweep column; this host has one core, so the delta vs
//                `simd` is pure pool dispatch overhead, not scaling),
// plus simd/naive and simd/scalar speedups.

#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/simd.h"
#include "base/thread_pool.h"
#include "bench_common.h"
#include "tensor/gemm.h"

namespace mocograd {
namespace {

// The exact kernel the SIMD layer replaced, pinned to SSE2 codegen on
// x86-64 so the numbers reproduce the seed build's codegen regardless of
// what the compiler would auto-vectorize this loop to. (The runtime ISA
// dispatch compiles only the tier TUs with wider ISA flags; the rest of
// the build, this file included, stays on the SSE2 baseline.)
#if defined(__x86_64__)
__attribute__((target("sse2")))
#endif
void NaiveGemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               float alpha, const float* a, int64_t lda, const float* b,
               int64_t ldb, float beta, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    for (int64_t p = 0; p < k; ++p) {
      const float av = alpha * (trans_a ? a[p * lda + i] : a[i * lda + p]);
      if (av == 0.0f) continue;
      const float* brow = trans_b ? nullptr : b + p * ldb;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += av * (trans_b ? b[j * ldb + p] : brow[j]);
      }
    }
  }
}

struct ShapeSpec {
  const char* name;
  int64_t m, n, k;
  bool trans_a = false;
  bool trans_b = false;
};

constexpr int kTrials = 5;

// Picks repetitions per trial so each trial spans roughly the same
// wall-clock budget regardless of shape size.
int RepsFor(int64_t m, int64_t n, int64_t k, double target_flops) {
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const double reps = target_flops / flops;
  if (reps < 1.0) return 1;
  if (reps > 2000.0) return 2000;
  return static_cast<int>(reps);
}

template <typename Fn>
double TimeGFlops(int64_t m, int64_t n, int64_t k, int reps, Fn run) {
  const double sec = bench::BestSecondsPerRep(kTrials, reps, run);
  return 2.0 * static_cast<double>(m) * n * k / sec / 1e9;
}

}  // namespace

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_gemm.json";

  const std::vector<ShapeSpec> shapes = {
      {"square_64", 64, 64, 64},
      {"square_128", 128, 128, 128},
      {"square_256", 256, 256, 256},
      {"mlp_fwd_256x128x64", 256, 128, 64},    // batch x hidden layers
      {"mlp_bwd_wgrad_128x64x256", 128, 64, 256},
      {"conv_im2col_32x1024x288", 32, 1024, 288},  // filters x pixels x c*k*k
      // conv backward's col_grad GEMM: W^T [patch, f] x g [f, pixels], the
      // transposed-A shape src/autograd/ops.cc emits per sample.
      {"conv_bwd_colgrad_288x1024x32", 288, 1024, 32, /*trans_a=*/true},
      {"rowvec_1x512x512", 1, 512, 512},       // m=1 edge (single sample)
      {"colvec_512x1x512", 512, 1, 512},       // n=1 edge (vector product)
      {"tall_512x32x64", 512, 32, 64},         // narrow n: streaming path
      // Just under kPackBMinRows: documents that the in-place-B streaming
      // cutover leaves no cliff for thin-m shapes.
      {"cutover_12x512x256", 12, 512, 256},
  };

  const GemmBlockSizes blocks = GemmBlocking();
  char blk[64];
  std::snprintf(blk, sizeof(blk), "%lld,%lld,%lld",
                static_cast<long long>(blocks.mc),
                static_cast<long long>(blocks.kc),
                static_cast<long long>(blocks.nc));

  std::string json = "{\n  \"threads\": 1,\n  \"trials\": ";
  json += std::to_string(kTrials);
  json += ",\n  \"gemm_block\": \"";
  json += blk;
  json += "\",\n  \"backend\": \"";
  json += simd::ActiveBackendName();
  // The tier the runtime ISA dispatch granted for the "simd" column —
  // same string as "backend" today, kept as its own key so the schema
  // matches BENCH_serve.json and telemetry records.
  json += "\",\n  \"isa_tier\": \"";
  json += simd::ActiveBackendName();
  json += "\",\n  \"shapes\": [\n";

  std::printf("%-30s %9s %9s %9s %9s %8s %8s\n", "shape", "naive", "scalar",
              "simd", "simd_t4", "x_naive", "x_scalar");
  bool first = true;
  for (const ShapeSpec& s : shapes) {
    Rng rng(0x5eed + s.m * 131 + s.n * 17 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n, 0.0f);
    for (float& v : a) v = rng.Uniform() - 0.5f;
    for (float& v : b) v = rng.Uniform() - 0.5f;
    // Stored leading dimensions for op(A) m×k / op(B) k×n.
    const int64_t lda = s.trans_a ? s.m : s.k;
    const int64_t ldb = s.trans_b ? s.k : s.n;
    const auto run_gemm = [&] {
      Gemm(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(), lda,
           b.data(), ldb, 0.0f, c.data(), s.n);
    };

    const int reps = RepsFor(s.m, s.n, s.k, 4e7);

    // Kernel-only numbers: one thread, no pool fan-out.
    ThreadPool::SetGlobalNumThreads(1);
    const double naive =
        TimeGFlops(s.m, s.n, s.k, reps, [&] {
          NaiveGemm(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(), lda,
                    b.data(), ldb, 0.0f, c.data(), s.n);
        });
    const simd::IsaTier tier = simd::ActiveTier();
    simd::SetTier(simd::IsaTier::kScalar);
    const double scalar = TimeGFlops(s.m, s.n, s.k, reps, run_gemm);
    simd::SetTier(tier);
    const double simd_gf = TimeGFlops(s.m, s.n, s.k, reps, run_gemm);

    // Pool sweep: same kernel through a 4-thread pool.
    ThreadPool::SetGlobalNumThreads(4);
    const double simd_t4 = TimeGFlops(s.m, s.n, s.k, reps, run_gemm);
    ThreadPool::SetGlobalNumThreads(1);

    const double x_naive = naive > 0.0 ? simd_gf / naive : 0.0;
    const double x_scalar = scalar > 0.0 ? simd_gf / scalar : 0.0;
    std::printf("%-30s %9.2f %9.2f %9.2f %9.2f %7.2fx %7.2fx\n", s.name,
                naive, scalar, simd_gf, simd_t4, x_naive, x_scalar);

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"m\": %lld, \"n\": %lld, "
                  "\"k\": %lld, \"trans_a\": %s, \"trans_b\": %s, "
                  "\"reps\": %d, \"gflops_naive\": %.3f, "
                  "\"gflops_scalar\": %.3f, \"gflops_simd\": %.3f, "
                  "\"gflops_simd_t4\": %.3f, "
                  "\"speedup_vs_naive\": %.3f, \"speedup_vs_scalar\": %.3f}",
                  s.name, static_cast<long long>(s.m),
                  static_cast<long long>(s.n), static_cast<long long>(s.k),
                  s.trans_a ? "true" : "false", s.trans_b ? "true" : "false",
                  reps, naive, scalar, simd_gf, simd_t4, x_naive, x_scalar);
    if (!first) json += ",\n";
    json += "    ";
    json += buf;
    first = false;
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace mocograd

int main(int argc, char** argv) { return mocograd::Main(argc, argv); }
