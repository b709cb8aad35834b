// GradMatrix reductions: Gram() is memcmp-equal to RowDot for every entry
// at every pool size (the blocked Gram kernel only reorders loops, never a
// pair's summation), its consumers' cosines agree bitwise, and RowDot's
// steady state does no heap work.

#include "core/grad_matrix.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/conflict.h"
#include "core/mocograd.h"
#include "obs/telemetry.h"

// Global operator new/delete instrumentation for the steady-state
// assertion. Counting is always on (plain relaxed atomics), asserted only
// inside the zero-alloc test.
static std::atomic<long long> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mocograd {
namespace {

class GradMatrixTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalNumThreads(1); }
};

core::GradMatrix RandomMatrix(int k, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  core::GradMatrix g(k, dim);
  for (int t = 0; t < k; ++t) {
    float* row = g.Row(t);
    for (int64_t p = 0; p < dim; ++p) row[p] = rng.Normal();
  }
  return g;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST_F(GradMatrixTest, GramEntriesMemcmpEqualRowDot) {
  // Ragged tails, the reduction-block edges, and the many-task bench width.
  const int64_t kDims[] = {1, 7, 8, 9, (1 << 15) - 1, 1 << 15, (1 << 15) + 1,
                           140032};
  for (int k : {1, 2, 3, 5, 9, 32}) {
    for (int64_t dim : kDims) {
      const core::GradMatrix g = RandomMatrix(k, dim, 1000 + k * 7 + dim);
      ThreadPool::SetGlobalNumThreads(1);
      std::vector<double> ref(static_cast<size_t>(k) * k);
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) ref[i * k + j] = g.RowDot(i, j);
      }
      for (int threads : {1, 2, 8}) {
        ThreadPool::SetGlobalNumThreads(threads);
        const auto gram = g.Gram();
        ASSERT_EQ(static_cast<int>(gram.size()), k);
        int mismatches = 0;
        for (int i = 0; i < k; ++i) {
          for (int j = 0; j < k; ++j) {
            if (!SameBits(gram[i][j], ref[i * k + j])) ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << "K=" << k << " dim=" << dim
                                 << " threads=" << threads;
      }
    }
  }
}

TEST_F(GradMatrixTest, GramOfZeroAndSignedZeroRows) {
  // A zero row must give +0.0 dots exactly as RowDot does (the multi-block
  // combine starts from 0.0), including a row of negative zeros.
  for (int64_t dim : {int64_t{9}, int64_t{(1 << 15) + 3}}) {
    core::GradMatrix g = RandomMatrix(3, dim, 5);
    std::memset(g.Row(1), 0, dim * sizeof(float));
    for (int64_t p = 0; p < dim; ++p) g.Row(2)[p] = -0.0f;
    for (int threads : {1, 4}) {
      ThreadPool::SetGlobalNumThreads(threads);
      const auto gram = g.Gram();
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          EXPECT_TRUE(SameBits(gram[i][j], g.RowDot(i, j)))
              << i << "," << j << " dim=" << dim;
        }
      }
    }
  }
}

TEST_F(GradMatrixTest, FallbackAndPublishedCosinesAgreeBitwise) {
  // The trainer reads cosines from the aggregator's trace when complete and
  // from PairwiseCosines otherwise; both must be the same numbers, zero-norm
  // rows included.
  const int k = 5;
  core::GradMatrix g = RandomMatrix(k, (1 << 15) + 21, 17);
  std::memset(g.Row(3), 0, g.dim() * sizeof(float));
  const std::vector<double> fallback = core::PairwiseCosines(g);

  obs::AggregatorTrace from_gram;
  from_gram.Begin("gram", k);
  from_gram.SetCosinesFromGram(g.Gram());
  EXPECT_EQ(std::memcmp(fallback.data(), from_gram.cosine_matrix().data(),
                        fallback.size() * sizeof(double)),
            0);

  core::MoCoGrad mocograd;
  obs::AggregatorTrace published;
  published.Begin("mocograd", k);
  Rng rng(3);
  std::vector<float> losses(k, 1.0f);
  core::AggregationContext ctx;
  ctx.task_grads = &g;
  ctx.losses = &losses;
  ctx.rng = &rng;
  ctx.trace = &published;
  mocograd.Aggregate(ctx);
  ASSERT_TRUE(published.cosines_complete());
  EXPECT_EQ(std::memcmp(fallback.data(), published.cosine_matrix().data(),
                        fallback.size() * sizeof(double)),
            0);
  EXPECT_EQ(fallback[3 * k + 1], 0.0);
}

TEST_F(GradMatrixTest, RowDotSteadyStateDoesNoHeapWork) {
  // Multi-block rows: RowDot takes its block partials from the scratch
  // arena, so once the arena has grown, a call allocates nothing (pool of
  // one: a fanned-out ParallelFor's dispatch allocations are sanctioned).
  ThreadPool::SetGlobalNumThreads(1);
  const core::GradMatrix g = RandomMatrix(2, 5 * (1 << 15) + 11, 9);
  double sink = g.RowDot(0, 1) + g.RowNorm(0);  // warm the arena
  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 20; ++rep) sink += g.RowDot(0, 1) + g.RowNorm(1);
  const long long after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "RowDot allocated in steady state";
  EXPECT_TRUE(std::isfinite(sink));
}

}  // namespace
}  // namespace mocograd
