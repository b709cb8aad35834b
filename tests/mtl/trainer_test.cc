#include "mtl/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "core/mocograd.h"
#include "core/registry.h"
#include "mtl/hps.h"
#include "optim/optimizer.h"
#include "testing/mtl_cases.h"

namespace mocograd {
namespace {

using autograd::Variable;
using data::Batch;
using data::TaskKind;

// Builds a tiny 2-task regression problem with a known shared structure.
struct TinyProblem {
  std::unique_ptr<mtl::HpsModel> model;
  std::vector<Batch> batches;

  explicit TinyProblem(uint64_t seed) {
    Rng rng(seed);
    mtl::HpsConfig cfg;
    cfg.input_dim = 4;
    cfg.shared_dims = {8};
    cfg.task_output_dims = {1, 1};
    model = std::make_unique<mtl::HpsModel>(cfg, rng);

    Tensor x = Tensor::Randn({16, 4}, rng);
    Tensor y1(Shape{16, 1});
    Tensor y2(Shape{16, 1});
    for (int i = 0; i < 16; ++i) {
      y1[i] = x.At(i, 0) + 0.5f * x.At(i, 1);
      y2[i] = x.At(i, 0) - 0.5f * x.At(i, 2);
    }
    batches = {Batch{.x = x, .y = y1, .labels = {}},
               Batch{.x = x, .y = y2, .labels = {}}};
  }
};

TEST(TaskLossTest, SelectsCorrectLoss) {
  Tensor pred2 = Tensor::Zeros({2, 1});
  Batch reg{.x = Tensor(), .y = Tensor::Ones({2, 1}), .labels = {}};
  EXPECT_NEAR(mtl::TaskLoss(TaskKind::kRegression, Variable(pred2, false),
                            reg)
                  .value()
                  .Item(),
              1.0f, 1e-6);
  EXPECT_NEAR(mtl::TaskLoss(TaskKind::kRegressionL1, Variable(pred2, false),
                            reg)
                  .value()
                  .Item(),
              1.0f, 1e-6);
  EXPECT_NEAR(mtl::TaskLoss(TaskKind::kRegressionMae, Variable(pred2, false),
                            reg)
                  .value()
                  .Item(),
              1.0f, 1e-6);  // trained with MSE; 1^2 == 1
  EXPECT_NEAR(mtl::TaskLoss(TaskKind::kBinaryLogistic,
                            Variable(pred2, false), reg)
                  .value()
                  .Item(),
              std::log(2.0f), 1e-5);

  Batch cls{.x = Tensor(), .y = Tensor(), .labels = {0, 1}};
  Tensor logits = Tensor::Zeros({2, 3});
  EXPECT_NEAR(mtl::TaskLoss(TaskKind::kClassification,
                            Variable(logits, false), cls)
                  .value()
                  .Item(),
              std::log(3.0f), 1e-5);

  Batch px{.x = Tensor(), .y = Tensor(), .labels = {0, 1, 2, 0}};
  Tensor maps = Tensor::Zeros({1, 3, 2, 2});
  EXPECT_NEAR(mtl::TaskLoss(TaskKind::kPixelClassification,
                            Variable(maps, false), px)
                  .value()
                  .Item(),
              std::log(3.0f), 1e-5);
}

TEST(MtlTrainerTest, StepReducesLosses) {
  TinyProblem prob(1);
  core::EqualWeight agg;
  optim::Adam opt(prob.model->Parameters(), 5e-2f);
  mtl::MtlTrainer trainer(prob.model.get(), &agg, &opt,
                          {TaskKind::kRegression, TaskKind::kRegression}, 3);
  auto first = trainer.Step(prob.batches);
  mtl::StepStats last;
  for (int i = 0; i < 120; ++i) last = trainer.Step(prob.batches);
  EXPECT_LT(last.losses[0], first.losses[0] * 0.2f);
  EXPECT_LT(last.losses[1], first.losses[1] * 0.2f);
  EXPECT_EQ(trainer.steps_done(), 121);
}

// Every statement of Step runs inside one phase bucket on the calling
// thread, so the buckets, in step order, sum to the step's wall time at
// every pool size.
TEST(MtlTrainerTest, PhasesPartitionTheStep) {
  for (testing::MtlArch arch : {testing::MtlArch::kHps,
                                testing::MtlArch::kMmoe,
                                testing::MtlArch::kScene}) {
    for (int threads : {1, 4}) {
      for (float max_norm : {0.0f, 1.0f}) {
        SCOPED_TRACE(std::string(testing::MtlArchName(arch)) + " threads " +
                     std::to_string(threads) + " max_norm " +
                     std::to_string(max_norm));
        ThreadPool::SetGlobalNumThreads(threads);
        testing::MtlCase c =
            testing::MakeMtlCase(arch, 31, 3, /*distinct_inputs=*/true);
        auto agg = core::MakeAggregator("mocograd").value();
        optim::Adam opt(c.model->Parameters(), 1e-2f);
        mtl::MtlTrainer trainer(c.model.get(), agg.get(), &opt, c.kinds, 5);
        trainer.set_max_grad_norm(max_norm);
        std::vector<std::string> expected = {
            "setup", "forward", "backward", "aggregate",
            "conflict_stats", "watchdog", "write_back", "clip",
            "optimizer", "telemetry"};
        if (max_norm == 0.0f) std::erase(expected, "clip");

        // The calling thread preempted between the caller's clock and the
        // first bucket is scheduler noise, not unattributed work, so a
        // loaded host gets up to three 20-step windows to show the share.
        double share = 0.0;
        for (int window = 0; window < 3 && share < 0.99; ++window) {
          double phase_sum = 0.0;
          double step_sum = 0.0;
          for (int step = 0; step < 20; ++step) {
            Stopwatch watch;
            const mtl::StepStats stats = trainer.Step(c.batches);
            step_sum += watch.ElapsedSeconds();
            const obs::PhaseProfile& ph = stats.phase;
            phase_sum += ph.Total();
            std::vector<std::string> names;
            for (const auto& e : ph.entries()) names.push_back(e.first);
            EXPECT_EQ(names, expected);
            EXPECT_EQ(stats.backward_seconds,
                      ph.Get("setup") + ph.Get("backward") +
                          ph.Get("aggregate"));
          }
          share = phase_sum / step_sum;
          EXPECT_LE(share, 1.0);
        }
        EXPECT_GE(share, 0.99);
      }
    }
  }
  ThreadPool::SetGlobalNumThreads(1);
}

// Records each step's task-gradient rows, then aggregates with `inner`
// through the same context, so whatever `inner` publishes on the trace
// reaches the trainer unchanged.
class RowSpyThen : public core::GradientAggregator {
 public:
  explicit RowSpyThen(std::unique_ptr<core::GradientAggregator> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  core::AggregationResult Aggregate(
      const core::AggregationContext& ctx) override {
    spy.Aggregate(ctx);
    return inner_->Aggregate(ctx);
  }

  testing::RowSpyAggregator spy;

 private:
  std::unique_ptr<core::GradientAggregator> inner_;
};

TEST(MtlTrainerTest, StepCosinesArePairwiseCosinesOfTheStepsRows) {
  // PCGrad publishes no cosines, so the trainer runs its own
  // PairwiseCosines pass; MoCoGrad publishes the complete matrix from its
  // calibration scan and the trainer reuses it. Either way the record holds
  // exactly PairwiseCosines over that step's rows.
  for (const std::string method : {"pcgrad", "mocograd"}) {
    SCOPED_TRACE(method);
    constexpr int k = 3;
    testing::MtlCase c = testing::MakeMtlCase(testing::MtlArch::kHps, 29, k,
                                              /*distinct_inputs=*/true);
    RowSpyThen agg(core::MakeAggregator(method).value());
    optim::Adam opt(c.model->Parameters(), 1e-2f);
    mtl::MtlTrainer trainer(c.model.get(), &agg, &opt, c.kinds, 5);
    for (int step = 0; step < 3; ++step) {
      const mtl::StepStats stats = trainer.Step(c.batches);
      ASSERT_EQ(stats.cosines.size(), static_cast<size_t>(k * k));
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
          EXPECT_EQ(stats.cosines[i * k + j],
                    i == j ? 1.0 : stats.cosines[j * k + i]);
        }
      }
      core::GradMatrix g(k, static_cast<int64_t>(agg.spy.rows[0].size()));
      for (int t = 0; t < k; ++t) g.SetRow(t, agg.spy.rows[t]);
      const std::vector<double> expected = core::PairwiseCosines(g);
      EXPECT_EQ(std::memcmp(stats.cosines.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0);
      const core::ConflictStats cs =
          core::ConflictStatsFromCosines(k, stats.cosines);
      EXPECT_EQ(std::memcmp(&stats.conflicts, &cs, sizeof(cs)), 0);
      EXPECT_EQ(stats.conflicts.num_pairs, k * (k - 1) / 2);
      EXPECT_GE(stats.backward_seconds, 0.0);
    }
  }
}

TEST(MtlTrainerTest, AggregatorSubPhasesReported) {
  TinyProblem prob(23);
  core::MoCoGrad agg;
  optim::Adam opt(prob.model->Parameters(), 1e-2f);
  mtl::MtlTrainer trainer(prob.model.get(), &agg, &opt,
                          {TaskKind::kRegression, TaskKind::kRegression}, 3);
  mtl::StepStats stats = trainer.Step(prob.batches);
  // MoCoGrad fills its calibration sub-phases through ctx.profile, inside
  // the trainer's aggregate bucket.
  EXPECT_FALSE(stats.aggregator_phase.empty());
  EXPECT_GE(stats.aggregator_phase.Get("calibrate"), 0.0);
  EXPECT_LE(stats.aggregator_phase.Total(), stats.phase.Get("aggregate"));
}

TEST(MtlTrainerTest, EwStepMatchesPlainJointBackward) {
  // The trainer with EqualWeight must produce exactly the same parameter
  // update as naive backprop through the summed loss.
  TinyProblem a(7), b(7);
  // Trainer path.
  core::EqualWeight agg;
  optim::Sgd opt_a(a.model->Parameters(), 0.1f);
  mtl::MtlTrainer trainer(a.model.get(), &agg, &opt_a,
                          {TaskKind::kRegression, TaskKind::kRegression}, 3);
  trainer.Step(a.batches);

  // Manual path on an identical model.
  b.model->ZeroGrad();
  std::vector<Variable> inputs = {Variable(b.batches[0].x, false),
                                  Variable(b.batches[1].x, false)};
  auto outs = b.model->Forward(inputs);
  auto l1 = mtl::TaskLoss(TaskKind::kRegression, outs[0], b.batches[0]);
  auto l2 = mtl::TaskLoss(TaskKind::kRegression, outs[1], b.batches[1]);
  l1.Backward();
  l2.Backward();
  optim::Sgd opt_b(b.model->Parameters(), 0.1f);
  opt_b.Step();

  auto pa = a.model->Parameters();
  auto pb = b.model->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i]->NumElements(); ++j) {
      EXPECT_NEAR(pa[i]->value()[j], pb[i]->value()[j], 1e-6)
          << "param " << i << " elem " << j;
    }
  }
}

TEST(MtlTrainerTest, TaskWeightsScaleTaskSpecificGrads) {
  // An aggregator with task weight 0 for task 1 must freeze task 1's head.
  class ZeroSecondTask : public core::GradientAggregator {
   public:
    std::string name() const override { return "zero2"; }
    core::AggregationResult Aggregate(
        const core::AggregationContext& ctx) override {
      core::AggregationResult r;
      r.shared_grad = ctx.task_grads->SumRows();
      r.task_weights = {1.0f, 0.0f};
      return r;
    }
  };
  TinyProblem prob(11);
  auto head1_before = prob.model->TaskParameters(1)[0]->value().Clone();
  ZeroSecondTask agg;
  optim::Sgd opt(prob.model->Parameters(), 0.1f);
  mtl::MtlTrainer trainer(prob.model.get(), &agg, &opt,
                          {TaskKind::kRegression, TaskKind::kRegression}, 3);
  trainer.Step(prob.batches);
  const Tensor& head1_after = prob.model->TaskParameters(1)[0]->value();
  for (int64_t i = 0; i < head1_after.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(head1_after[i], head1_before[i]);
  }
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.NumElements() * sizeof(float)) ==
             0;
}

// Predict builds no tape, but it must return exactly the bits of a taped
// Forward and hand every parameter its requires_grad flag back.
TEST(MtlTrainerTest, PredictBitwiseEqualsForwardForEveryArchitecture) {
  for (testing::MtlArch arch : testing::AllMtlArchs()) {
    SCOPED_TRACE(testing::MtlArchName(arch));
    testing::MtlCase c = testing::MakeMtlCase(
        arch, /*seed=*/41, /*num_tasks=*/3, /*distinct_inputs=*/true);
    core::EqualWeight agg;
    optim::Adam opt(c.model->Parameters(), 1e-2f);
    mtl::MtlTrainer trainer(c.model.get(), &agg, &opt, c.kinds, 3);

    std::vector<Variable> inputs;
    for (const Batch& b : c.batches) inputs.emplace_back(b.x, false);
    const std::vector<Variable> taped = c.model->Forward(inputs);
    const std::vector<Tensor> preds = trainer.Predict(c.batches);
    ASSERT_EQ(preds.size(), taped.size());
    for (size_t k = 0; k < preds.size(); ++k) {
      EXPECT_TRUE(taped[k].requires_grad());
      EXPECT_TRUE(BitIdentical(preds[k], taped[k].value())) << "task " << k;
    }
    for (Variable* p : c.model->Parameters()) {
      EXPECT_TRUE(p->requires_grad());
      EXPECT_FALSE(p->has_grad());
    }
  }
}

// A Predict between steps is observation-only: the next Step leaves
// bit-identical parameters and losses to a run without it.
TEST(MtlTrainerTest, PredictDoesNotPerturbTheNextStep) {
  for (testing::MtlArch arch : testing::AllMtlArchs()) {
    SCOPED_TRACE(testing::MtlArchName(arch));
    auto run = [arch](bool predict) {
      testing::MtlCase c = testing::MakeMtlCase(arch, /*seed=*/43, 3, true);
      auto agg = core::MakeAggregator("mocograd").value();
      optim::Adam opt(c.model->Parameters(), 1e-2f);
      mtl::MtlTrainer trainer(c.model.get(), agg.get(), &opt, c.kinds, 5);
      std::vector<Tensor> out;
      for (int step = 0; step < 2; ++step) {
        if (predict) trainer.Predict(c.batches);
        const mtl::StepStats stats = trainer.Step(c.batches);
        out.push_back(Tensor::FromVector(
            {static_cast<int64_t>(stats.losses.size())}, stats.losses));
      }
      for (Variable* p : c.model->Parameters()) {
        out.push_back(p->value().Clone());
      }
      return out;
    };
    const std::vector<Tensor> plain = run(false);
    const std::vector<Tensor> with_predict = run(true);
    ASSERT_EQ(plain.size(), with_predict.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_TRUE(BitIdentical(plain[i], with_predict[i])) << "tensor " << i;
    }
  }
}

TEST(MtlTrainerTest, MismatchedBatchCountAborts) {
  TinyProblem prob(19);
  core::EqualWeight agg;
  optim::Adam opt(prob.model->Parameters(), 1e-2f);
  mtl::MtlTrainer trainer(prob.model.get(), &agg, &opt,
                          {TaskKind::kRegression, TaskKind::kRegression}, 3);
  std::vector<Batch> one = {prob.batches[0]};
  EXPECT_DEATH(trainer.Step(one), "one batch per task");
}

// A two-task model whose bias parameter is listed by both heads, or by
// no parameter set at all. Never run: the trainer rejects it up front.
class BadPartitionModel : public mtl::MtlModel {
 public:
  explicit BadPartitionModel(bool bias_in_both_heads)
      : bias_in_both_heads_(bias_in_both_heads) {
    trunk_ = RegisterParameter("trunk", Tensor::Ones({2, 2}));
    heads_ = {RegisterParameter("head0", Tensor::Ones({2, 1})),
              RegisterParameter("head1", Tensor::Ones({2, 1}))};
    bias_ = RegisterParameter("bias", Tensor::Zeros({1}));
  }
  int num_tasks() const override { return 2; }
  std::vector<Variable> Forward(const std::vector<Variable>&) override {
    return {};
  }
  std::vector<Variable*> SharedParameters() override { return {trunk_}; }
  std::vector<Variable*> TaskParameters(int k) override {
    if (!bias_in_both_heads_) return {heads_[k]};
    return {heads_[k], bias_};
  }

 private:
  bool bias_in_both_heads_;
  Variable* trunk_;
  std::vector<Variable*> heads_;
  Variable* bias_;
};

// Each task's sweep writes its parameters' gradients in place and the
// write-back overwrites every gradient, so the shared and per-task sets
// must partition Parameters(): a parameter two heads share would be
// written by two concurrent sweeps, and one in no set would keep a stale
// gradient.
TEST(MtlTrainerTest, ConstructorRejectsAParameterPartitionThatIsNotOne) {
  core::EqualWeight agg;
  const std::vector<TaskKind> kinds = {TaskKind::kRegression,
                                       TaskKind::kRegression};
  BadPartitionModel shared_bias(/*bias_in_both_heads=*/true);
  optim::Adam opt(shared_bias.Parameters(), 1e-2f);
  EXPECT_DEATH(mtl::MtlTrainer(&shared_bias, &agg, &opt, kinds, 3),
               "must partition Parameters");
  BadPartitionModel orphan_bias(/*bias_in_both_heads=*/false);
  optim::Adam opt2(orphan_bias.Parameters(), 1e-2f);
  EXPECT_DEATH(mtl::MtlTrainer(&orphan_bias, &agg, &opt2, kinds, 3),
               "must partition Parameters");
}

}  // namespace
}  // namespace mocograd
