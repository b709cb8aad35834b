#include "core/grad_matrix.h"

#include <algorithm>
#include <cmath>

#include "base/scratch.h"
#include "base/thread_pool.h"
#include "base/vec_ops.h"

namespace mocograd {
namespace core {

namespace {

// Fixed block length for the dot-product reductions, mirroring the scheme
// in tensor/ops.cc: each block is summed sequentially and the per-block
// partials are combined in block order, so the result is bit-identical for
// any thread-pool size (including the serial path).
constexpr int64_t kReduceBlock = 1 << 15;

// Minimum columns per chunk for the column-parallel row combinations.
constexpr int64_t kColGrain = 1 << 14;

// Below this many pair-columns (K(K+1)/2 · dim) a Gram runs its reduction
// blocks without row stripes: fanning out costs more than it saves.
constexpr int64_t kGramStripeWork = int64_t{1} << 18;

}  // namespace

void GradMatrix::SetRow(int k, const std::vector<float>& src) {
  MG_CHECK_EQ(static_cast<int64_t>(src.size()), dim_, "SetRow size");
  std::copy(src.begin(), src.end(), Row(k));
}

std::vector<float> GradMatrix::RowVector(int k) const {
  const float* r = Row(k);
  return std::vector<float>(r, r + dim_);
}

double GradMatrix::RowDot(int i, int j) const {
  const float* a = Row(i);
  const float* b = Row(j);
  const int64_t num_blocks = (dim_ + kReduceBlock - 1) / kReduceBlock;
  auto block_sum = [a, b](int64_t p0, int64_t p1) {
    return vec::DotF64(p1 - p0, a + p0, b + p0);
  };
  if (num_blocks <= 1) return block_sum(0, dim_);
  ScratchScope scope;
  double* partials =
      static_cast<double*>(scope.Alloc(num_blocks * sizeof(double)));
  ParallelFor(0, num_blocks, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t blk = b0; blk < b1; ++blk) {
      partials[blk] = block_sum(blk * kReduceBlock,
                                std::min(dim_, (blk + 1) * kReduceBlock));
    }
  });
  double s = 0.0;
  for (int64_t blk = 0; blk < num_blocks; ++blk) s += partials[blk];
  return s;
}

double GradMatrix::RowNorm(int i) const { return std::sqrt(RowDot(i, i)); }

std::vector<std::vector<double>> GradMatrix::Gram() const {
  const int k = num_tasks_;
  const int64_t kk = static_cast<int64_t>(k) * k;
  const int64_t num_blocks = (dim_ + kReduceBlock - 1) / kReduceBlock;
  // Work items are (reduction block × row stripe). Stripes split the upper
  // triangle's rows into runs of about equal pair counts so that a matrix
  // with fewer blocks than pool threads still fans out; every pair's value
  // depends only on its block, so the split never changes a result.
  const int threads = ThreadPool::GlobalNumThreads();
  const int64_t pairs = static_cast<int64_t>(k) * (k + 1) / 2;
  const int num_stripes =
      threads <= 1 || pairs * dim_ < kGramStripeWork
          ? 1
          : static_cast<int>(std::min<int64_t>(
                k, (2 * threads + num_blocks - 1) / num_blocks));
  ScratchScope scope;
  double* partials =
      static_cast<double*>(scope.Alloc(num_blocks * kk * sizeof(double)));
  int* stripe_begin =
      static_cast<int*>(scope.Alloc((num_stripes + 1) * sizeof(int)));
  {
    // Row r opens (k - r) pairs; stripe s starts at the first row whose
    // preceding pairs reach s/num_stripes of the triangle, clamped so that
    // every stripe keeps at least one row.
    int64_t before = 0;
    int r = 0;
    stripe_begin[0] = 0;
    for (int s = 1; s < num_stripes; ++s) {
      while (before < pairs * s / num_stripes) before += k - r++;
      stripe_begin[s] = std::min(std::max(r, stripe_begin[s - 1] + 1),
                                 k - (num_stripes - s));
    }
    stripe_begin[num_stripes] = k;
  }
  ParallelFor(0, num_blocks * num_stripes, 1, [&](int64_t w0, int64_t w1) {
    for (int64_t w = w0; w < w1; ++w) {
      const int64_t blk = w / num_stripes;
      const int r0 = stripe_begin[w % num_stripes];
      const int r1 = stripe_begin[w % num_stripes + 1];
      const int64_t p0 = blk * kReduceBlock;
      const int64_t p1 = std::min(dim_, p0 + kReduceBlock);
      ScratchScope item;  // the executing thread's arena
      const float** rows =
          static_cast<const float**>(item.Alloc(k * sizeof(const float*)));
      for (int i = 0; i < k; ++i) rows[i] = Row(i) + p0;
      double* scratch = static_cast<double*>(
          item.Alloc(vec::GramF64ScratchDoubles(k, r0, r1) * sizeof(double)));
      vec::GramF64(k, r0, r1, rows, p1 - p0, scratch, partials + blk * kk);
    }
  });
  // Combine the block partials exactly as RowDot does: a single block is
  // the dot itself; several are summed from 0.0 in block order.
  std::vector<std::vector<double>> m(k, std::vector<double>(k, 0.0));
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < k; ++j) {
      const int64_t at = static_cast<int64_t>(i) * k + j;
      double s = partials[at];
      if (num_blocks > 1) {
        s = 0.0;
        for (int64_t blk = 0; blk < num_blocks; ++blk) {
          s += partials[blk * kk + at];
        }
      }
      m[i][j] = m[j][i] = s;
    }
  }
  return m;
}

std::vector<float> GradMatrix::SumRows() const {
  std::vector<float> out(dim_, 0.0f);
  float* po = out.data();
  // Column ranges are disjoint; every output element accumulates its K
  // contributions in fixed task order, so any partition is bit-identical.
  ParallelFor(0, dim_, kColGrain, [&](int64_t p0, int64_t p1) {
    for (int k = 0; k < num_tasks_; ++k) {
      vec::Add(p1 - p0, Row(k) + p0, po + p0);
    }
  });
  return out;
}

std::vector<float> GradMatrix::WeightedSumRows(
    const std::vector<double>& w) const {
  MG_CHECK_EQ(static_cast<int>(w.size()), num_tasks_, "weight count");
  std::vector<float> out(dim_, 0.0f);
  float* po = out.data();
  ParallelFor(0, dim_, kColGrain, [&](int64_t p0, int64_t p1) {
    for (int k = 0; k < num_tasks_; ++k) {
      vec::Axpy(p1 - p0, static_cast<float>(w[k]), Row(k) + p0, po + p0);
    }
  });
  return out;
}

}  // namespace core
}  // namespace mocograd
