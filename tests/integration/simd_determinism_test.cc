// The SIMD layer's core guarantee (docs/SIMD.md): every runtime-dispatch
// kernel tier — scalar, SSE, NEON, AVX2, AVX-512 — produces bit-identical
// results, for every kernel, at every pool size. Combined with the
// thread-determinism contract this means a training run's bits depend on
// neither MOCOGRAD_SIMD_ISA nor MOCOGRAD_NUM_THREADS.
//
// Every test sweeps each tier the host grants (on an ISA without a hardware
// backend only the scalar tier exists, and the comparisons trivially hold)
// crossed with pool sizes 1/2/8.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "base/bf16.h"
#include "base/rng.h"
#include "base/simd.h"
#include "base/thread_pool.h"
#include "core/grad_matrix.h"
#include "core/registry.h"
#include "mtl/hps.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing/mtl_cases.h"

namespace mocograd {
namespace {

using autograd::Variable;
using data::Batch;
using data::TaskKind;

// Every tier this host can actually run (SetTier clamps unavailable
// requests down, so requesting each tier and keeping the exact grants
// enumerates the usable set — always at least {scalar}). Leaves the active
// tier as it found it.
std::vector<simd::IsaTier> AvailableTiers() {
  const simd::IsaTier start = simd::ActiveTier();
  std::vector<simd::IsaTier> tiers;
  for (simd::IsaTier t :
       {simd::IsaTier::kScalar, simd::IsaTier::kSse, simd::IsaTier::kNeon,
        simd::IsaTier::kAvx2, simd::IsaTier::kAvx512}) {
    simd::SetTier(t);
    if (simd::ActiveTier() == t) tiers.push_back(t);
  }
  simd::SetTier(start);
  return tiers;
}

// AvailableTiers() x pool sizes {1, 2, 8}; the first cell is the reference.
std::vector<std::pair<simd::IsaTier, int>> Configs() {
  std::vector<std::pair<simd::IsaTier, int>> configs;
  for (simd::IsaTier tier : AvailableTiers()) {
    for (int threads : {1, 2, 8}) configs.emplace_back(tier, threads);
  }
  return configs;
}

// "(tier=avx2, threads=8)", for failure messages.
std::string CellName(simd::IsaTier tier, int threads) {
  return std::string("(tier=") + simd::TierName(tier) +
         ", threads=" + std::to_string(threads) + ")";
}

// Activates one grid cell.
void Apply(simd::IsaTier tier, int threads) {
  simd::SetTier(tier);
  ThreadPool::SetGlobalNumThreads(threads);
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.NumElements() == b.NumElements() &&
         std::memcmp(a.data(), b.data(), a.NumElements() * sizeof(float)) ==
             0;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class SimdDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { start_tier_ = simd::ActiveTier(); }
  void TearDown() override {
    ThreadPool::SetGlobalNumThreads(1);
    simd::SetTier(start_tier_);
  }

 private:
  simd::IsaTier start_tier_ = simd::IsaTier::kScalar;
};

TEST_F(SimdDeterminismTest, GemmBitIdenticalAcrossBackendsAndPools) {
  Rng rng(42);
  const int64_t m = 67, n = 83, k = 129;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c0 = Tensor::Randn({m, n}, rng);
  Tensor at = tops::Transpose2D(a);
  Tensor bt = tops::Transpose2D(b);

  Tensor ref_plain, ref_trans;
  for (const auto& [tier, threads] : Configs()) {
    Apply(tier, threads);
    Tensor c = c0.Clone();
    Gemm(false, false, m, n, k, 1.3f, a.data(), k, b.data(), n, 0.7f,
         c.data(), n);
    Tensor ct = c0.Clone();
    Gemm(true, true, m, n, k, -0.5f, at.data(), m, bt.data(), k, 1.0f,
         ct.data(), n);
    if (!ref_plain.defined()) {
      ref_plain = c;
      ref_trans = ct;
    } else {
      EXPECT_TRUE(BitIdentical(ref_plain, c))
          << "Gemm differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_trans, ct))
          << "transposed Gemm differs " << CellName(tier, threads);
    }
  }
}

TEST_F(SimdDeterminismTest, TensorKernelsBitIdenticalAcrossBackendsAndPools) {
  Rng rng(7);
  // Large enough for several reduction blocks and elementwise chunks.
  Tensor a = Tensor::Randn({100003}, rng);
  Tensor b = Tensor::Randn({100003}, rng);
  // Salt the inputs with the values on which Max/Min backends can disagree
  // (the contract pins second-operand-wins on unordered and +/-0 ties):
  // NaN, +/-Inf and -0.0, placed both inside full 8-lane blocks and in the
  // scalar <8-element tail (n = 100003, tail = indices 100000..100002).
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const int64_t kSpecial[][2] = {
      // {index, 0 = a / 1 = b}
      {5, 0},     {6, 1},     {777, 0},    {778, 0},    {4096, 1},
      {4097, 0},  {50001, 0}, {50002, 1},  {100000, 0}, {100001, 1},
      {100002, 0}};
  const float kVals[] = {kNan, kNan, -0.0f, kInf,  -kInf, kNan,
                         -0.0f, kInf, kNan,  -0.0f, -kInf};
  for (size_t i = 0; i < std::size(kSpecial); ++i) {
    (kSpecial[i][1] ? b : a).data()[kSpecial[i][0]] = kVals[i];
  }
  // Pairs where a lane of a is special while the same lane of b is finite
  // (and vice versa) so Maximum's tie-breaking is actually exercised.
  a.data()[9] = kNan;
  b.data()[9] = 1.0f;
  a.data()[10] = 2.0f;
  b.data()[10] = kNan;
  a.data()[11] = -0.0f;
  b.data()[11] = 0.0f;
  a.data()[12] = 0.0f;
  b.data()[12] = -0.0f;

  bool have_ref = false;
  float sum0 = 0, norm0 = 0, dot0 = 0;
  Tensor add0, mul0, relu0, clamp0, max0, axpy0, relu_bwd0, clamp_bwd0;
  for (const auto& [tier, threads] : Configs()) {
    Apply(tier, threads);
    const float sum = tops::SumAll(a);
    const float norm = tops::Norm(a);
    const float dot = tops::Dot(a, b);
    Tensor add = tops::Add(a, b);
    Tensor mul = tops::Mul(a, b);
    Tensor relu = tops::Relu(a);
    Tensor clamp = tops::Clamp(a, -0.5f, 0.5f);
    Tensor max = tops::Maximum(a, b);
    Tensor axpy = a.Clone();
    tops::Axpy(0.37f, b, axpy);
    Tensor relu_bwd = tops::ReluBackward(b, a);
    Tensor clamp_bwd = tops::ClampBackward(b, a, -0.5f, 0.5f);
    if (!have_ref) {
      have_ref = true;
      sum0 = sum;
      norm0 = norm;
      dot0 = dot;
      add0 = add;
      mul0 = mul;
      relu0 = relu;
      clamp0 = clamp;
      max0 = max;
      axpy0 = axpy;
      relu_bwd0 = relu_bwd;
      clamp_bwd0 = clamp_bwd;
      // The contract's pinned semantics, identical on every backend: the
      // second operand of Max/Min wins on unordered comparisons and on
      // +/-0 ties.
      auto bits = [](float x) {
        uint32_t u;
        std::memcpy(&u, &x, sizeof(u));
        return u;
      };
      EXPECT_EQ(bits(relu.data()[5]), bits(0.0f));    // Relu(NaN) == +0.0
      EXPECT_EQ(bits(relu.data()[777]), bits(0.0f));  // Relu(-0.0) == +0.0
      // tops::Maximum(a, b) == std::max(a, b) lane-for-lane: the FIRST
      // tensor's element wins on unordered comparisons and +/-0 ties.
      EXPECT_TRUE(std::isnan(max.data()[9]));         // Maximum(NaN, 1)
      EXPECT_EQ(bits(max.data()[10]), bits(2.0f));    // Maximum(2, NaN)
      EXPECT_EQ(bits(max.data()[11]), bits(-0.0f));   // Maximum(-0, +0)
      EXPECT_EQ(bits(max.data()[12]), bits(0.0f));    // Maximum(+0, -0)
    } else {
      EXPECT_EQ(std::memcmp(&sum, &sum0, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&norm, &norm0, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&dot, &dot0, sizeof(float)), 0);
      EXPECT_TRUE(BitIdentical(add0, add));
      EXPECT_TRUE(BitIdentical(mul0, mul));
      EXPECT_TRUE(BitIdentical(relu0, relu))
          << "Relu differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(clamp0, clamp))
          << "Clamp differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(max0, max))
          << "Maximum differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(axpy0, axpy))
          << "Axpy differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(relu_bwd0, relu_bwd))
          << "ReluBackward differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(clamp_bwd0, clamp_bwd))
          << "ClampBackward differs " << CellName(tier, threads);
    }
  }
}

TEST_F(SimdDeterminismTest, GradMatrixOpsBitIdenticalAcrossBackendsAndPools) {
  Rng rng(11);
  const int kTasks = 3;
  const int64_t dim = 120001;
  core::GradMatrix grads(kTasks, dim);
  for (int t = 0; t < kTasks; ++t) {
    float* row = grads.Row(t);
    for (int64_t p = 0; p < dim; ++p) row[p] = rng.Normal();
  }
  const std::vector<double> w = {0.2, 1.7, -0.4};

  bool have_ref = false;
  double dot0 = 0;
  std::vector<float> sum0, wsum0;
  for (const auto& [tier, threads] : Configs()) {
    Apply(tier, threads);
    const double dot = grads.RowDot(0, 1);
    std::vector<float> sum = grads.SumRows();
    std::vector<float> wsum = grads.WeightedSumRows(w);
    if (!have_ref) {
      have_ref = true;
      dot0 = dot;
      sum0 = std::move(sum);
      wsum0 = std::move(wsum);
    } else {
      EXPECT_EQ(std::memcmp(&dot, &dot0, sizeof(double)), 0);
      EXPECT_TRUE(BitIdentical(sum0, sum));
      EXPECT_TRUE(BitIdentical(wsum0, wsum));
    }
  }
}

TEST_F(SimdDeterminismTest, OptimizerStepsBitIdenticalAcrossBackendsAndPools) {
  auto run = [](simd::IsaTier tier, int threads) {
    Apply(tier, threads);
    Rng rng(99);
    Variable w(Tensor::Randn({37, 21}, rng), /*requires_grad=*/true);
    Tensor g = Tensor::Randn({37, 21}, rng);
    optim::Adam opt({&w}, 1e-2f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.01f);
    for (int step = 0; step < 5; ++step) {
      w.mutable_grad().CopyFrom(g);
      opt.Step();
    }
    return w.value().Clone();
  };
  const std::vector<std::pair<simd::IsaTier, int>> configs = Configs();
  Tensor ref = run(configs[0].first, configs[0].second);
  for (const auto& [tier, threads] : configs) {
    EXPECT_TRUE(BitIdentical(ref, run(tier, threads)))
        << "Adam differs " << CellName(tier, threads);
  }
}

// End to end: a short MoCoGrad training run — forward, per-task backward,
// aggregation (dots, axpys, EMA), Adam — leaves bit-identical parameters
// whatever the backend and pool size.
TEST_F(SimdDeterminismTest, TrainerStepsBitIdenticalAcrossBackendsAndPools) {
  auto run = [](simd::IsaTier tier, int threads) {
    Apply(tier, threads);
    Rng rng(123);
    mtl::HpsConfig cfg;
    cfg.input_dim = 48;
    cfg.shared_dims = {96, 64};
    cfg.task_output_dims = {1, 1, 1};
    mtl::HpsModel model(cfg, rng);

    Tensor x = Tensor::Randn({64, 48}, rng);
    std::vector<Batch> batches;
    for (int t = 0; t < 3; ++t) {
      Tensor y = Tensor::Randn({64, 1}, rng);
      batches.push_back(Batch{.x = x, .y = y, .labels = {}});
    }

    auto aggregator = core::MakeAggregator("mocograd").value();
    optim::Adam opt(model.Parameters(), 1e-2f);
    mtl::MtlTrainer trainer(&model, aggregator.get(), &opt,
                            {TaskKind::kRegression, TaskKind::kRegression,
                             TaskKind::kRegression},
                            /*seed=*/17);
    std::vector<float> losses;
    for (int step = 0; step < 4; ++step) {
      mtl::StepStats stats = trainer.Step(batches);
      losses.insert(losses.end(), stats.losses.begin(), stats.losses.end());
    }
    std::vector<Tensor> params;
    for (Variable* p : model.Parameters()) {
      params.push_back(p->value().Clone());
    }
    return std::make_pair(params, losses);
  };

  const std::vector<std::pair<simd::IsaTier, int>> configs = Configs();
  auto [params0, losses0] = run(configs[0].first, configs[0].second);
  for (const auto& [tier, threads] : configs) {
    auto [params, losses] = run(tier, threads);
    ASSERT_EQ(params.size(), params0.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(BitIdentical(params0[i], params[i]))
          << "parameter " << i << " differs " << CellName(tier, threads);
    }
    ASSERT_EQ(losses.size(), losses0.size());
    EXPECT_TRUE(BitIdentical(losses0, losses))
        << "losses differ " << CellName(tier, threads);
  }
}

// The trainer's leaf destinations for every mtl_cases architecture: one
// Step's task-gradient rows and task-parameter grads (unit task weights)
// are bit-identical on every tier at every pool size.
TEST_F(SimdDeterminismTest,
       TrainerLeafDestinationsBitIdenticalAcrossBackendsAndPools) {
  constexpr int kTasks = 3;
  auto run = [](testing::MtlArch arch) {
    testing::MtlCase c = testing::MakeMtlCase(arch, /*seed=*/31, kTasks,
                                              /*distinct_inputs=*/true,
                                              /*rows=*/48);
    testing::RowSpyAggregator spy;
    optim::Adam opt(c.model->Parameters(), 1e-2f);
    mtl::MtlTrainer trainer(c.model.get(), &spy, &opt, c.kinds, /*seed=*/5);
    trainer.Step(c.batches);
    std::vector<float> out;
    for (const std::vector<float>& row : spy.rows) {
      out.insert(out.end(), row.begin(), row.end());
    }
    for (int t = 0; t < kTasks; ++t) {
      for (const Variable* p : c.model->TaskParameters(t)) {
        const float* g = p->grad().data();
        out.insert(out.end(), g, g + p->NumElements());
      }
    }
    return out;
  };

  const std::vector<std::pair<simd::IsaTier, int>> configs = Configs();
  for (testing::MtlArch arch : testing::AllMtlArchs()) {
    Apply(configs[0].first, configs[0].second);
    const std::vector<float> ref = run(arch);
    for (const auto& [tier, threads] : configs) {
      Apply(tier, threads);
      EXPECT_TRUE(BitIdentical(ref, run(arch)))
          << testing::MtlArchName(arch) << " differs "
          << CellName(tier, threads);
    }
  }
}

// The per-tier battery: every tier the host can run produces bit-identical
// GEMM (all shape paths), bf16 GEMM, elementwise, reduction, broadcast,
// Gram and optimizer results at pool sizes 1/2/8. This is the cross-tier
// half of the runtime-dispatch contract; run_tests.sh additionally re-runs
// whole suites under MOCOGRAD_SIMD_ISA=scalar / sse to pin the
// startup-selection half.
TEST_F(SimdDeterminismTest, AllTiersBitIdentical) {
  Rng rng(314);
  const int64_t m = 37, n = 51, k = 129;  // streaming path, ragged panels
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c0 = Tensor::Randn({m, n}, rng);
  const int64_t bm = 33, bn = 300;  // blocked path (m >= 16, n >= 256)
  Tensor ba = Tensor::Randn({bm, k}, rng);
  Tensor bb = Tensor::Randn({k, bn}, rng);
  Tensor ew = Tensor::Randn({10007}, rng);
  // Broadcast row walk above the parallel grain: a bias-style row
  // broadcast (span kernel per row) and a gate-style column broadcast
  // (one operand's scalar per row).
  Tensor bc = Tensor::Randn({1024, 37}, rng);
  Tensor bc_row = Tensor::Randn({37}, rng);
  Tensor bc_col = Tensor::Randn({1024, 1}, rng);
  std::vector<uint16_t> b16(static_cast<size_t>(k) * n);
  for (size_t i = 0; i < b16.size(); ++i) b16[i] = Bf16FromF32(bb.data()[i]);
  // GramF64 through GradMatrix::Gram: 9 rows (two 4-wide j blocks plus a
  // remainder), two reduction blocks and a ragged tail.
  core::GradMatrix grads(9, (1 << 15) + 13);
  for (int t = 0; t < grads.num_tasks(); ++t) {
    for (int64_t p = 0; p < grads.dim(); ++p) grads.Row(t)[p] = rng.Normal();
  }


  Tensor ref_c, ref_blk, ref_relu, ref_opt, ref_bc_add, ref_bc_mul;
  std::vector<float> ref_bf16, ref_bf16_row;
  std::vector<std::vector<double>> ref_gram;
  float ref_sum = 0.0f;
  bool have_ref = false;
  for (const auto& [tier, threads] : Configs()) {
    Apply(tier, threads);
    ASSERT_EQ(simd::ActiveTier(), tier);

    Tensor c = c0.Clone();
    Gemm(false, false, m, n, k, 1.3f, a.data(), k, b.data(), n, 0.7f,
         c.data(), n);
    Tensor blk = Tensor::Zeros({bm, bn});
    Gemm(false, false, bm, bn, k, 1.0f, ba.data(), k, bb.data(), bn, 0.0f,
         blk.data(), bn);
    std::vector<float> cbf(static_cast<size_t>(m) * n);
    GemmBf16B(m, n, k, a.data(), k, b16.data(), n, cbf.data(), n);
    std::vector<float> cbf_row(static_cast<size_t>(n));
    GemmBf16B(1, n, k, a.data(), k, b16.data(), n, cbf_row.data(), n);
    Tensor relu = tops::Relu(ew);
    const float sum = tops::SumAll(ew);
    Tensor bc_add = tops::Add(bc, bc_row);
    Tensor bc_mul = tops::Mul(bc, bc_col);
    Rng wrng(5), grng(6);
    Variable w(Tensor::Randn({13, 7}, wrng), /*requires_grad=*/true);
    optim::Adam opt({&w}, 1e-2f);
    w.mutable_grad().CopyFrom(Tensor::Randn({13, 7}, grng));
    opt.Step();
    const std::vector<std::vector<double>> gram = grads.Gram();

    if (!have_ref) {
      have_ref = true;
      ref_c = c;
      ref_blk = blk;
      ref_bf16 = cbf;
      ref_bf16_row = cbf_row;
      ref_relu = relu;
      ref_sum = sum;
      ref_bc_add = bc_add;
      ref_bc_mul = bc_mul;
      ref_opt = w.value().Clone();
      ref_gram = gram;
      // The bf16 batched rows and the m == 1 row agree per element
      // (batch-invariant serving).
      for (int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(cbf[static_cast<size_t>(j)], cbf_row[j]) << j;
      }
    } else {
      EXPECT_TRUE(BitIdentical(ref_c, c))
          << "Gemm differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_blk, blk))
          << "blocked Gemm differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_bf16, cbf))
          << "GemmBf16B differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_bf16_row, cbf_row))
          << "GemmBf16B m=1 differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_relu, relu))
          << "Relu differs " << CellName(tier, threads);
      EXPECT_EQ(std::memcmp(&sum, &ref_sum, sizeof(float)), 0)
          << "SumAll differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_bc_add, bc_add))
          << "row-broadcast Add differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_bc_mul, bc_mul))
          << "column-broadcast Mul differs " << CellName(tier, threads);
      EXPECT_TRUE(BitIdentical(ref_opt, w.value()))
          << "Adam differs " << CellName(tier, threads);
      for (size_t i = 0; i < gram.size(); ++i) {
        EXPECT_EQ(std::memcmp(gram[i].data(), ref_gram[i].data(),
                              gram[i].size() * sizeof(double)),
                  0)
            << "GramF64 row " << i << " differs " << CellName(tier, threads);
      }
    }
  }
}

}  // namespace
}  // namespace mocograd
