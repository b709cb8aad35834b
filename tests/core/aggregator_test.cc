#include <gtest/gtest.h>

#include <cmath>

#include "core/conflict.h"
#include "core/metrics.h"
#include "core/registry.h"

namespace mocograd {
namespace {

using core::AggregationContext;
using core::AggregationResult;
using core::GradMatrix;

// Builds a GradMatrix from explicit rows.
GradMatrix MakeGrads(const std::vector<std::vector<float>>& rows) {
  GradMatrix g(static_cast<int>(rows.size()),
               static_cast<int64_t>(rows[0].size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    g.SetRow(static_cast<int>(i), rows[i]);
  }
  return g;
}

AggregationResult RunAgg(core::GradientAggregator& agg, const GradMatrix& g,
                      std::vector<float> losses = {}, uint64_t seed = 1,
                      int64_t step = 0) {
  if (losses.empty()) losses.assign(g.num_tasks(), 1.0f);
  Rng rng(seed);
  AggregationContext ctx;
  ctx.task_grads = &g;
  ctx.losses = &losses;
  ctx.step = step;
  ctx.rng = &rng;
  return agg.Aggregate(ctx);
}

double Dot(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += double(a[i]) * b[i];
  return s;
}

double Norm(const std::vector<float>& a) { return std::sqrt(Dot(a, a)); }

TEST(GradMatrixTest, RowAccessAndGram) {
  GradMatrix g = MakeGrads({{1, 0}, {0, 2}});
  EXPECT_EQ(g.num_tasks(), 2);
  EXPECT_EQ(g.dim(), 2);
  EXPECT_DOUBLE_EQ(g.RowDot(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(g.RowNorm(1), 2.0);
  auto gram = g.Gram();
  EXPECT_DOUBLE_EQ(gram[0][0], 1.0);
  EXPECT_DOUBLE_EQ(gram[1][1], 4.0);
  auto sum = g.SumRows();
  EXPECT_FLOAT_EQ(sum[0], 1.0f);
  EXPECT_FLOAT_EQ(sum[1], 2.0f);
  auto wsum = g.WeightedSumRows({2.0, 0.5});
  EXPECT_FLOAT_EQ(wsum[0], 2.0f);
  EXPECT_FLOAT_EQ(wsum[1], 1.0f);
}

TEST(ConflictTest, GcdDefinition) {
  const float a[] = {1, 0};
  const float b[] = {0, 1};
  const float c[] = {-1, 0};
  EXPECT_NEAR(core::Gcd(a, b, 2), 1.0, 1e-9);          // orthogonal
  EXPECT_NEAR(core::Gcd(a, c, 2), 2.0, 1e-9);          // opposed
  EXPECT_NEAR(core::Gcd(a, a, 2), 0.0, 1e-9);          // aligned
  EXPECT_FALSE(core::IsConflicting(a, b, 2));
  EXPECT_TRUE(core::IsConflicting(a, c, 2));
}

TEST(ConflictTest, ZeroGradientIsNeutral) {
  const float a[] = {1, 0};
  const float z[] = {0, 0};
  EXPECT_NEAR(core::CosineSimilarity(a, z, 2), 0.0, 1e-12);
  EXPECT_FALSE(core::IsConflicting(a, z, 2));
}

TEST(ConflictTest, StatsCountPairs) {
  GradMatrix g = MakeGrads({{1, 0}, {-1, 0}, {0, 1}});
  auto stats = core::ConflictStatsFromCosines(3, core::PairwiseCosines(g));
  EXPECT_EQ(stats.num_pairs, 3);
  EXPECT_EQ(stats.num_conflicting_pairs, 1);
  EXPECT_NEAR(stats.max_gcd, 2.0, 1e-9);
  EXPECT_NEAR(stats.mean_gcd, (2.0 + 1.0 + 1.0) / 3.0, 1e-9);
}

TEST(MetricsTest, TciSign) {
  EXPECT_GT(core::Tci(0.9, 0.8), 0.0);  // MTL worse (lower=better): conflict
  EXPECT_LT(core::Tci(0.7, 0.8), 0.0);
}

TEST(MetricsTest, DeltaMMatchesEq27) {
  // One higher-better metric improved 10%, one lower-better worsened 5%.
  std::vector<core::MetricComparison> cmp = {
      {.mtl_value = 1.1, .stl_value = 1.0, .higher_is_better = true},
      {.mtl_value = 1.05, .stl_value = 1.0, .higher_is_better = false},
  };
  EXPECT_NEAR(core::DeltaM(cmp), (0.10 - 0.05) / 2.0, 1e-9);
}

TEST(RegistryTest, BuildsEveryMethod) {
  for (const std::string& name : core::AllMethodNames()) {
    auto agg = core::MakeAggregator(name);
    ASSERT_TRUE(agg.ok()) << name;
    EXPECT_EQ(agg.value()->name(), name);
  }
  EXPECT_FALSE(core::MakeAggregator("bogus").ok());
}

TEST(RegistryTest, PaperOrderHasTenMethods) {
  EXPECT_EQ(core::PaperMethodNames().size(), 10u);
  EXPECT_EQ(core::PaperMethodNames().back(), "mocograd");
}

// Every method must reduce to (a scaling of) the single gradient when K=1
// and produce finite output.
class SingleTaskEdgeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SingleTaskEdgeTest, DegeneratesGracefully) {
  auto agg = core::MakeAggregator(GetParam()).value();
  GradMatrix g = MakeGrads({{1.0f, -2.0f, 3.0f}});
  auto r = RunAgg(*agg, g);
  ASSERT_EQ(r.shared_grad.size(), 3u);
  // Direction must match g (positive multiple).
  const double cos = Dot(r.shared_grad, {1.0f, -2.0f, 3.0f}) /
                     (Norm(r.shared_grad) * std::sqrt(14.0));
  EXPECT_NEAR(cos, 1.0, 1e-5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SingleTaskEdgeTest,
                         ::testing::ValuesIn(core::AllMethodNames()));

// With orthogonal (non-conflicting) gradients, surgery methods must return
// the plain sum.
class NonConflictingTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NonConflictingTest, SurgeryMethodsPreserveSum) {
  auto agg = core::MakeAggregator(GetParam()).value();
  GradMatrix g = MakeGrads({{1, 0, 0}, {0, 2, 0}});
  auto r = RunAgg(*agg, g);
  EXPECT_EQ(r.num_conflicts, 0);
  EXPECT_NEAR(r.shared_grad[0], 1.0f, 1e-5);
  EXPECT_NEAR(r.shared_grad[1], 2.0f, 1e-5);
  EXPECT_NEAR(r.shared_grad[2], 0.0f, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(SurgeryMethods, NonConflictingTest,
                         ::testing::Values("ew", "pcgrad", "mocograd"));

// All methods: finite output on random conflicting inputs.
class FinitenessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FinitenessTest, OutputAlwaysFinite) {
  auto agg = core::MakeAggregator(GetParam()).value();
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    agg->Reset();  // task count varies across trials
    const int k = 2 + trial % 4;
    const int64_t p = 16;
    GradMatrix g(k, p);
    for (int i = 0; i < k; ++i) {
      for (int64_t q = 0; q < p; ++q) g.Row(i)[q] = rng.Normal(0.0f, 2.0f);
    }
    std::vector<float> losses(k, 0.5f + trial * 0.1f);
    auto r = RunAgg(*agg, g, losses, trial, trial);
    ASSERT_EQ(r.shared_grad.size(), static_cast<size_t>(p));
    ASSERT_EQ(r.task_weights.size(), static_cast<size_t>(k));
    for (float v : r.shared_grad) EXPECT_TRUE(std::isfinite(v)) << GetParam();
    for (float v : r.task_weights) EXPECT_TRUE(std::isfinite(v)) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, FinitenessTest,
                         ::testing::ValuesIn(core::AllMethodNames()));

// All methods: all-zero gradients must not produce NaNs.
class ZeroGradEdgeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZeroGradEdgeTest, HandlesAllZeroGradients) {
  auto agg = core::MakeAggregator(GetParam()).value();
  GradMatrix g(3, 8);  // zeros
  auto r = RunAgg(*agg, g);
  for (float v : r.shared_grad) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 0.0f, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ZeroGradEdgeTest,
                         ::testing::ValuesIn(core::AllMethodNames()));

// --- PCGrad-specific properties --------------------------------------------

TEST(PcGradTest, TwoTaskProjectionRemovesConflict) {
  // After projecting g1 onto the normal plane of g2, the projected g1 must
  // be orthogonal to g2 (two-task case is order-independent).
  GradMatrix g = MakeGrads({{1, 0}, {-0.5f, 0.8f}});
  auto agg = core::MakeAggregator("pcgrad").value();
  auto r = RunAgg(*agg, g);
  EXPECT_EQ(r.num_conflicts, 2);
  // Expected: g1' = g1 - (g1.g2/||g2||^2) g2; g2' symmetric; sum:
  const float d = (1 * -0.5f + 0 * 0.8f);
  const float n2 = 0.25f + 0.64f;
  std::vector<float> g1p = {1 - d / n2 * -0.5f, -d / n2 * 0.8f};
  std::vector<float> g2p = {-0.5f - d * 1.0f, 0.8f};
  EXPECT_NEAR(r.shared_grad[0], g1p[0] + g2p[0], 1e-5);
  EXPECT_NEAR(r.shared_grad[1], g1p[1] + g2p[1], 1e-5);
  // Orthogonality of each projected gradient to the other original one:
  EXPECT_NEAR(g1p[0] * -0.5f + g1p[1] * 0.8f, 0.0f, 1e-6);
}

TEST(PcGradTest, OutputNotWorseForAnyTaskTwoTasks) {
  // For two tasks, PCGrad's combined direction has non-negative dot with
  // both original gradients (Yu et al., Lemma 1).
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    GradMatrix g(2, 6);
    for (int i = 0; i < 2; ++i) {
      for (int64_t q = 0; q < 6; ++q) g.Row(i)[q] = rng.Normal(0.0f, 1.0f);
    }
    auto agg = core::MakeAggregator("pcgrad").value();
    auto r = RunAgg(*agg, g, {}, trial);
    EXPECT_GE(Dot(r.shared_grad, g.RowVector(0)), -1e-4);
    EXPECT_GE(Dot(r.shared_grad, g.RowVector(1)), -1e-4);
  }
}

// --- MGDA-specific -----------------------------------------------------------

TEST(MgdaTest, OpposedGradientsNearZeroDirection) {
  // Exactly opposed equal-norm gradients: min-norm point is the origin.
  GradMatrix g = MakeGrads({{1, 0}, {-1, 0}});
  auto agg = core::MakeAggregator("mgda").value();
  auto r = RunAgg(*agg, g);
  EXPECT_NEAR(Norm(r.shared_grad), 0.0, 1e-3);
}

TEST(MgdaTest, CommonDescentDirection) {
  // MGDA's direction must not increase any task loss: dot(d, g_k) >= 0.
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    GradMatrix g(3, 5);
    for (int i = 0; i < 3; ++i) {
      for (int64_t q = 0; q < 5; ++q) g.Row(i)[q] = rng.Normal(0.0f, 1.0f);
    }
    auto agg = core::MakeAggregator("mgda").value();
    auto r = RunAgg(*agg, g);
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(Dot(r.shared_grad, g.RowVector(i)), -1e-3);
    }
  }
}

// --- CAGrad ---------------------------------------------------------------------

TEST(CaGradTest, CZeroReducesToAverage) {
  core::AggregatorOptions opts;
  opts.cagrad.c = 0.0f;
  auto agg = core::MakeAggregator("cagrad", opts).value();
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  auto r = RunAgg(*agg, g);
  // With c=0 the update is g0 * K = sum of gradients.
  EXPECT_NEAR(r.shared_grad[0], 1.0f, 1e-4);
  EXPECT_NEAR(r.shared_grad[1], 1.0f, 1e-4);
}

TEST(CaGradTest, WorstTaskImprovementNotNegative) {
  // CAGrad direction keeps min_k <d, g_k> at least as good as it is for the
  // plain average direction (that is its objective).
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    GradMatrix g(3, 6);
    for (int i = 0; i < 3; ++i) {
      for (int64_t q = 0; q < 6; ++q) g.Row(i)[q] = rng.Normal(0.0f, 1.0f);
    }
    auto agg = core::MakeAggregator("cagrad").value();
    auto r = RunAgg(*agg, g);
    auto avg = g.SumRows();
    for (auto& v : avg) v /= 3.0f;
    double min_ca = 1e30, min_avg = 1e30;
    for (int i = 0; i < 3; ++i) {
      min_ca = std::min(min_ca, Dot(r.shared_grad, g.RowVector(i)) /
                                    std::max(1e-9, Norm(r.shared_grad)));
      min_avg = std::min(min_avg, Dot(avg, g.RowVector(i)) /
                                      std::max(1e-9, Norm(avg)));
    }
    EXPECT_GE(min_ca, min_avg - 5e-2);
  }
}

// --- IMTL ------------------------------------------------------------------------

TEST(ImtlTest, EqualProjectionsProperty) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    GradMatrix g(3, 6);
    for (int i = 0; i < 3; ++i) {
      for (int64_t q = 0; q < 6; ++q) g.Row(i)[q] = rng.Normal(0.0f, 1.0f);
    }
    auto agg = core::MakeAggregator("imtl").value();
    auto r = RunAgg(*agg, g);
    // g^T u_k equal across k.
    std::vector<double> proj(3);
    for (int i = 0; i < 3; ++i) {
      proj[i] = Dot(r.shared_grad, g.RowVector(i)) / g.RowNorm(i);
    }
    EXPECT_NEAR(proj[0], proj[1], 1e-3 * (1.0 + std::fabs(proj[0])));
    EXPECT_NEAR(proj[0], proj[2], 1e-3 * (1.0 + std::fabs(proj[0])));
  }
}

TEST(ImtlTest, ColinearFallsBackToEqualWeights) {
  GradMatrix g = MakeGrads({{1, 0}, {2, 0}});  // colinear: singular system
  auto agg = core::MakeAggregator("imtl").value();
  auto r = RunAgg(*agg, g);
  EXPECT_NEAR(r.shared_grad[0], 3.0f, 1e-4);
}

// --- RLW / DWA --------------------------------------------------------------------

TEST(RlwTest, WeightsSumToKAndVary) {
  auto agg = core::MakeAggregator("rlw").value();
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}, {1, 1}});
  auto r1 = RunAgg(*agg, g, {}, 1);
  auto r2 = RunAgg(*agg, g, {}, 2);
  double s = 0.0;
  for (float w : r1.task_weights) {
    EXPECT_GT(w, 0.0f);
    s += w;
  }
  EXPECT_NEAR(s, 3.0, 1e-5);
  // Different seeds give different weights.
  bool differs = false;
  for (int i = 0; i < 3; ++i) {
    if (std::fabs(r1.task_weights[i] - r2.task_weights[i]) > 1e-6) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(DwaTest, UpweightsStalledTask) {
  core::AggregatorOptions opts;
  auto agg = core::MakeAggregator("dwa", opts).value();
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  // Step 0/1: warmup with equal weights.
  RunAgg(*agg, g, {1.0f, 1.0f}, 1, 0);
  RunAgg(*agg, g, {0.5f, 1.0f}, 1, 1);  // task 0 halves, task 1 stalls
  auto r = RunAgg(*agg, g, {0.4f, 1.0f}, 1, 2);
  // Task 1's loss ratio (1.0) > task 0's (0.5): task 1 gets more weight.
  EXPECT_GT(r.task_weights[1], r.task_weights[0]);
  const double sum = r.task_weights[0] + r.task_weights[1];
  EXPECT_NEAR(sum, 2.0, 1e-5);
}

TEST(DwaTest, FirstStepsEqualWeights) {
  auto agg = core::MakeAggregator("dwa").value();
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  auto r = RunAgg(*agg, g, {2.0f, 1.0f}, 1, 0);
  EXPECT_FLOAT_EQ(r.task_weights[0], 1.0f);
  EXPECT_FLOAT_EQ(r.task_weights[1], 1.0f);
}

// --- Nash-MTL ------------------------------------------------------------------------

TEST(NashMtlTest, SolvesBargainingFixedPoint) {
  // Orthogonal unit gradients: GG^T = I, so α = 1/α ⇒ α_i = 1; after the
  // sum-to-K normalization weights are all 1.
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  auto agg = core::MakeAggregator("nashmtl").value();
  auto r = RunAgg(*agg, g);
  EXPECT_NEAR(r.task_weights[0], 1.0f, 1e-2);
  EXPECT_NEAR(r.task_weights[1], 1.0f, 1e-2);
}

TEST(NashMtlTest, SmallerGradientGetsLargerWeight) {
  // Nash bargaining is scale-invariant-ish: tasks with small gradients get
  // upweighted (α_i ~ 1/(Gα)_i).
  GradMatrix g = MakeGrads({{10, 0}, {0, 0.1f}});
  auto agg = core::MakeAggregator("nashmtl").value();
  auto r = RunAgg(*agg, g);
  EXPECT_GT(r.task_weights[1], r.task_weights[0]);
}

// --- GradDrop ---------------------------------------------------------------------------

TEST(GradDropTest, PureSignCoordinatesPassThrough) {
  // All tasks agree in sign on every coordinate -> mask keeps everything.
  GradMatrix g = MakeGrads({{1, -1}, {2, -2}});
  auto agg = core::MakeAggregator("graddrop").value();
  auto r = RunAgg(*agg, g);
  EXPECT_FLOAT_EQ(r.shared_grad[0], 3.0f);
  EXPECT_FLOAT_EQ(r.shared_grad[1], -3.0f);
}

TEST(GradDropTest, MaskedOutputKeepsOneSignPerCoordinate) {
  Rng rng(31);
  GradMatrix g(4, 32);
  for (int i = 0; i < 4; ++i) {
    for (int64_t q = 0; q < 32; ++q) g.Row(i)[q] = rng.Normal(0.0f, 1.0f);
  }
  auto agg = core::MakeAggregator("graddrop").value();
  auto r = RunAgg(*agg, g);
  for (int64_t q = 0; q < 32; ++q) {
    double pos = 0.0, neg = 0.0;
    for (int i = 0; i < 4; ++i) {
      const float v = g.Row(i)[q];
      if (v > 0) pos += v;
      if (v < 0) neg += v;
    }
    // Output is either the positive or the negative part, never a blend.
    EXPECT_TRUE(std::fabs(r.shared_grad[q] - pos) < 1e-5 ||
                std::fabs(r.shared_grad[q] - neg) < 1e-5);
  }
}

}  // namespace
}  // namespace mocograd
