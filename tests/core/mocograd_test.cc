#include "core/mocograd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "base/thread_pool.h"
#include "base/vec_ops.h"
#include "core/conflict.h"
#include "obs/telemetry.h"

namespace mocograd {
namespace {

using core::AggregationContext;
using core::GradMatrix;
using core::MoCoGrad;
using core::MoCoGradOptions;

GradMatrix MakeGrads(const std::vector<std::vector<float>>& rows) {
  GradMatrix g(static_cast<int>(rows.size()),
               static_cast<int64_t>(rows[0].size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    g.SetRow(static_cast<int>(i), rows[i]);
  }
  return g;
}

core::AggregationResult Step(MoCoGrad& agg, const GradMatrix& g,
                             Rng& rng, int64_t step = 0) {
  std::vector<float> losses(g.num_tasks(), 1.0f);
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

// Test-local reference: Algorithm 1 exactly as MoCoGrad ran it before the
// Gram pass — every dot a fresh RowDot, every norm a RowNorm, the
// calibration applied row by row in task order, one EMA per task.
// MoCoGrad::Aggregate must match it bit for bit.
struct ReferenceMoCoGrad {
  MoCoGradOptions options;
  std::vector<std::vector<float>> momenta;

  core::AggregationResult Step(const GradMatrix& g, Rng* rng,
                               obs::AggregatorTrace* trace) {
    constexpr double kEps = 1e-12;
    const int k = g.num_tasks();
    const int64_t p = g.dim();
    if (momenta.empty()) momenta.assign(k, std::vector<float>(p, 0.0f));
    std::vector<double> g_norm(k), m_norm(k);
    for (int i = 0; i < k; ++i) {
      g_norm[i] = g.RowNorm(i);
      m_norm[i] = std::sqrt(vec::SquaredNormF64(p, momenta[i].data()));
    }
    trace->set_grad_norms(g_norm);
    trace->set_momentum_norms(m_norm);
    core::AggregationResult out;
    out.shared_grad.assign(p, 0.0f);
    out.task_weights.assign(k, 1.0);
    auto add_calibration = [&](int j) -> double {
      const bool use_m = !options.use_raw_gradient && m_norm[j] > kEps;
      const float* dir = use_m ? momenta[j].data() : g.Row(j);
      const double dir_norm = use_m ? m_norm[j] : g_norm[j];
      if (dir_norm <= kEps) return 0.0;
      const float scale =
          static_cast<float>(options.lambda * g_norm[j] / dir_norm);
      vec::Axpy(p, scale, dir, out.shared_grad.data());
      return scale;
    };
    std::vector<int> others(k);
    std::iota(others.begin(), others.end(), 0);
    for (int i = 0; i < k; ++i) {
      int chosen = -1;
      rng->Shuffle(others);
      for (int j : others) {
        if (j == i) continue;
        const double dot = g.RowDot(i, j);
        const double denom = g_norm[i] * g_norm[j];
        trace->SetCosine(i, j, denom < kEps ? 0.0 : dot / denom);
        if (dot >= 0.0) continue;
        ++out.num_conflicts;
        if (options.accumulate_all_conflicts) {
          const double scale = add_calibration(j);
          trace->RecordPair(i, j, trace->cosine(i, j), scale, scale != 0.0);
        } else {
          chosen = j;
          trace->RecordPair(i, j, trace->cosine(i, j), 0.0, false);
        }
      }
      vec::Add(p, g.Row(i), out.shared_grad.data());
      if (chosen < 0) continue;
      const double scale = add_calibration(chosen);
      if (scale != 0.0) trace->MarkActed(i, chosen, scale);
    }
    for (int j = 0; j < k; ++j) {
      vec::Ema(p, options.beta1, g.Row(j), momenta[j].data());
    }
    return out;
  }
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(MoCoGradTest, GramPathBitIdenticalToRowDotReference) {
  // Multi-block rows (RowDot's block combine matters), a cold start on the
  // first step, and a task whose gradient is always zero (its momentum
  // stays at ‖m‖ = 0, and every cosine against it takes the zero-norm
  // convention). Checked at several pool sizes and for both ablation
  // switches, which change the calibration terms and their order.
  const int k = 6;
  const int64_t dim = 2 * (1 << 15) + 37;
  const int kZeroTask = 4;
  MoCoGradOptions raw;
  raw.use_raw_gradient = true;
  MoCoGradOptions all;
  all.accumulate_all_conflicts = true;
  for (const MoCoGradOptions& opts : {MoCoGradOptions{}, raw, all}) {
    for (int threads : {1, 3}) {
      ThreadPool::SetGlobalNumThreads(threads);
      MoCoGrad agg(opts);
      ReferenceMoCoGrad ref{opts, {}};
      Rng rng(7), ref_rng(7), data(99);
      obs::AggregatorTrace trace, ref_trace;
      GradMatrix g(k, dim);
      for (int step = 0; step < 4; ++step) {
        SCOPED_TRACE(testing::Message()
                     << "step " << step << " threads " << threads
                     << " raw " << opts.use_raw_gradient << " all "
                     << opts.accumulate_all_conflicts);
        for (int t = 0; t < k; ++t) {
          // A shared direction with per-task signs gives a mix of
          // conflicting and aligned pairs.
          const float sign = (t + step) % 3 == 0 ? -1.0f : 1.0f;
          for (int64_t q = 0; q < dim; ++q) {
            g.Row(t)[q] = t == kZeroTask ? 0.0f : sign * 0.5f + data.Normal();
          }
        }
        trace.Begin("mocograd", k);
        ref_trace.Begin("mocograd", k);
        std::vector<float> losses(k, 1.0f);
        AggregationContext ctx;
        ctx.task_grads = &g;
        ctx.losses = &losses;
        ctx.step = step;
        ctx.rng = &rng;
        ctx.trace = &trace;
        const core::AggregationResult got = agg.Aggregate(ctx);
        const core::AggregationResult want =
            ref.Step(g, &ref_rng, &ref_trace);

        EXPECT_TRUE(SameBits(got.shared_grad, want.shared_grad));
        EXPECT_EQ(got.num_conflicts, want.num_conflicts);
        EXPECT_GT(got.num_conflicts, 0);
        for (int t = 0; t < k; ++t) {
          EXPECT_TRUE(SameBits(agg.momentum(t), ref.momenta[t])) << t;
        }
        EXPECT_TRUE(
            SameBits(trace.cosine_matrix(), ref_trace.cosine_matrix()));
        EXPECT_TRUE(SameBits(trace.grad_norms(), ref_trace.grad_norms()));
        EXPECT_TRUE(
            SameBits(trace.momentum_norms(), ref_trace.momentum_norms()));
        ASSERT_EQ(trace.pairs().size(), ref_trace.pairs().size());
        for (size_t q = 0; q < trace.pairs().size(); ++q) {
          const obs::PairDecision& a = trace.pairs()[q];
          const obs::PairDecision& b = ref_trace.pairs()[q];
          EXPECT_EQ(a.i, b.i);
          EXPECT_EQ(a.j, b.j);
          EXPECT_EQ(a.acted, b.acted);
          EXPECT_EQ(std::memcmp(&a.cosine, &b.cosine, sizeof(double)), 0);
          EXPECT_EQ(std::memcmp(&a.magnitude, &b.magnitude, sizeof(double)),
                    0);
        }
        EXPECT_EQ(trace.cosine(kZeroTask, 0), 0.0);
      }
    }
  }
  ThreadPool::SetGlobalNumThreads(1);
}

TEST(MoCoGradTest, NonConflictingGradientsUntouched) {
  MoCoGrad agg;
  Rng rng(1);
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  auto r = Step(agg, g, rng);
  EXPECT_EQ(r.num_conflicts, 0);
  EXPECT_FLOAT_EQ(r.shared_grad[0], 1.0f);
  EXPECT_FLOAT_EQ(r.shared_grad[1], 1.0f);
}

TEST(MoCoGradTest, ColdStartFallsBackToRawGradient) {
  // First step, conflicting pair, momenta are zero: Eq. (8) must fall back
  // to λ·g_j. With g1=(1,0), g2=(-1,0.1), λ=0.5:
  // ĝ1 = g1 + 0.5*g2 ; ĝ2 = g2 + 0.5*g1 ; sum = 1.5*(g1+g2).
  MoCoGradOptions opts;
  opts.lambda = 0.5f;
  MoCoGrad agg(opts);
  Rng rng(2);
  GradMatrix g = MakeGrads({{1, 0}, {-1, 0.1f}});
  auto r = Step(agg, g, rng);
  EXPECT_EQ(r.num_conflicts, 2);
  EXPECT_NEAR(r.shared_grad[0], 1.5f * 0.0f, 1e-5);
  EXPECT_NEAR(r.shared_grad[1], 1.5f * 0.1f, 1e-5);
}

TEST(MoCoGradTest, MomentumFollowsEq9) {
  MoCoGradOptions opts;
  opts.beta1 = 0.9f;
  MoCoGrad agg(opts);
  Rng rng(3);
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  Step(agg, g, rng, 0);
  // m = 0.9*0 + 0.1*g
  EXPECT_NEAR(agg.momentum(0)[0], 0.1f, 1e-6);
  EXPECT_NEAR(agg.momentum(1)[1], 0.1f, 1e-6);
  Step(agg, g, rng, 1);
  // m = 0.9*0.1 + 0.1*1 = 0.19
  EXPECT_NEAR(agg.momentum(0)[0], 0.19f, 1e-6);
}

TEST(MoCoGradTest, CalibrationUsesMomentumNotCurrentGradient) {
  // Warm up momentum of task 1 along +y, then present a conflicting current
  // gradient for task 1 along -x. The calibration applied to task 0 must
  // point along the *momentum* (+y-ish), not along the raw g_1.
  MoCoGradOptions opts;
  opts.lambda = 1.0f;
  opts.beta1 = 0.5f;
  MoCoGrad agg(opts);
  Rng rng(4);
  // Step 1: no conflict; builds momenta. g0=+x, g1=+y.
  GradMatrix warm = MakeGrads({{1, 0}, {0, 1}});
  Step(agg, warm, rng, 0);
  // Step 2: g0=+x, g1=-x (conflict with g0). m_1 before this step = (0, .5).
  GradMatrix g = MakeGrads({{1, 0}, {-1, 0}});
  auto r = Step(agg, g, rng, 1);
  EXPECT_GE(r.num_conflicts, 1);
  // ĝ0 = g0 + 1.0*(||g1||/||m1||)*m1 = (1,0) + (0,1)*2*0.5 = (1, 1).
  // ĝ1: conflict detected vs g0; m_0 = (0.5, 0) -> ĝ1 = (-1,0)+(1,0)=(0,0).
  EXPECT_NEAR(r.shared_grad[0], 1.0f, 1e-5);
  EXPECT_NEAR(r.shared_grad[1], 1.0f, 1e-5);
}

TEST(MoCoGradTest, Theorem1NormBound) {
  // ‖ĝ‖ ≤ K(1+λ)G where G bounds the task-gradient norms (Theorem 1).
  Rng data_rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 2 + trial % 5;
    const int64_t p = 12;
    MoCoGradOptions opts;
    opts.lambda = 0.05f + 0.9f * (trial % 10) / 10.0f;
    MoCoGrad agg(opts);
    Rng rng(trial);
    GradMatrix g(k, p);
    double gmax = 0.0;
    for (int i = 0; i < k; ++i) {
      for (int64_t q = 0; q < p; ++q) {
        g.Row(i)[q] = data_rng.Normal(0.0f, 2.0f);
      }
      gmax = std::max(gmax, g.RowNorm(i));
    }
    // Run several steps so momenta are non-trivial.
    for (int s = 0; s < 5; ++s) {
      auto r = Step(agg, g, rng, s);
      EXPECT_LE(Norm(r.shared_grad),
                k * (1.0 + opts.lambda) * gmax + 1e-4)
          << "k=" << k << " lambda=" << opts.lambda;
      EXPECT_LE(Norm(r.shared_grad), 2.0 * k * gmax + 1e-4);
    }
  }
}

TEST(MoCoGradTest, CalibrationPullsConflictingPairCloser) {
  // The manipulated gradients must have a larger cosine (smaller GCD) than
  // the originals when a conflict is calibrated.
  MoCoGradOptions opts;
  opts.lambda = 0.5f;
  MoCoGrad agg(opts);
  Rng rng(6);
  // Build momentum roughly aligned with each task's gradient first.
  GradMatrix warm = MakeGrads({{1.0f, 0.3f}, {-0.8f, 0.6f}});
  Step(agg, warm, rng, 0);
  GradMatrix g = MakeGrads({{1.0f, 0.3f}, {-0.8f, 0.6f}});
  const double gcd_before =
      core::Gcd(g.Row(0), g.Row(1), g.dim());
  ASSERT_GT(gcd_before, 1.0);

  // Manually compute ĝ_0 and ĝ_1 via one more aggregate and compare the
  // pairwise geometry of the *summed* output with the EW sum: MoCoGrad's sum
  // must align better with both tasks than the EW sum does with its worse
  // task.
  auto r = Step(agg, g, rng, 1);
  auto ew = g.SumRows();
  double worst_moco = 1e9, worst_ew = 1e9;
  for (int i = 0; i < 2; ++i) {
    const auto gi = g.RowVector(i);
    worst_moco = std::min(
        worst_moco, Dot(r.shared_grad, gi) / (Norm(r.shared_grad) * Norm(gi)));
    worst_ew = std::min(worst_ew, Dot(ew, gi) / (Norm(ew) * Norm(gi)));
  }
  EXPECT_GE(worst_moco, worst_ew - 1e-6);
}

TEST(MoCoGradTest, ResetClearsMomenta) {
  MoCoGrad agg;
  Rng rng(7);
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  Step(agg, g, rng, 0);
  EXPECT_GT(std::fabs(agg.momentum(0)[0]), 0.0f);
  agg.Reset();
  GradMatrix g3 = MakeGrads({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  // After reset a different task count must be accepted.
  auto r = Step(agg, g3, rng, 0);
  EXPECT_EQ(r.shared_grad.size(), 3u);
}

TEST(MoCoGradTest, LambdaValidation) {
  EXPECT_DEATH(MoCoGrad(MoCoGradOptions{.lambda = 0.0f}), "lambda");
  EXPECT_DEATH(MoCoGrad(MoCoGradOptions{.lambda = 1.5f}), "lambda");
  EXPECT_DEATH((MoCoGrad(MoCoGradOptions{.lambda = 0.5f, .beta1 = 1.0f})),
               "");
}

TEST(MoCoGradTest, DeterministicGivenSeed) {
  MoCoGradOptions opts;
  auto run = [&](uint64_t seed) {
    MoCoGrad agg(opts);
    Rng rng(seed);
    Rng data(17);
    GradMatrix g(4, 10);
    for (int i = 0; i < 4; ++i) {
      for (int64_t q = 0; q < 10; ++q) g.Row(i)[q] = data.Normal();
    }
    std::vector<float> out;
    for (int s = 0; s < 3; ++s) out = Step(agg, g, rng, s).shared_grad;
    return out;
  };
  auto a = run(5);
  auto b = run(5);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace mocograd
