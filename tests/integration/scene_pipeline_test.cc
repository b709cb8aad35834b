// Integration test of the dense-prediction pipeline: procedural scenes →
// conv MTL model → per-pixel losses → aggregated training → pixel metrics.

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/registry.h"
#include "data/scene.h"
#include "eval/metrics.h"
#include "harness/experiment.h"
#include "mtl/scene_model.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"

namespace mocograd {
namespace {

TEST(ScenePipelineTest, SegmentationLearnsAboveMajorityBaseline) {
  data::SceneConfig sc;
  sc.mode = data::SceneMode::kCityscapes;
  sc.num_train = 48;
  sc.num_test = 24;
  sc.hw = 12;
  data::SceneSim ds(sc);

  // Majority-class pixel accuracy on the test labels.
  auto test = ds.TestBatches();
  std::vector<int64_t> counts(ds.num_classes(), 0);
  for (int64_t l : test[0].labels) counts[l]++;
  const double majority =
      static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
      test[0].labels.size();

  auto factory = harness::SceneConvFactory(3, 12, 2);
  harness::TrainConfig cfg;
  cfg.steps = 120;
  cfg.batch_size = 6;
  cfg.lr = 4e-3f;
  cfg.seed = 3;
  auto r = harness::RunMethod(ds, {0, 1}, "mocograd", factory, cfg);
  EXPECT_GT(r.task_metrics[0][1].value, majority + 0.03)
      << "pixacc must clearly beat predicting the majority class";
}

TEST(ScenePipelineTest, ConflictTrackerSeesDenseGradients) {
  data::SceneConfig sc;
  sc.mode = data::SceneMode::kNyu;
  sc.num_train = 16;
  sc.num_test = 8;
  sc.hw = 10;
  data::SceneSim ds(sc);

  Rng rng(5);
  mtl::SceneConvConfig mc;
  mc.in_channels = 3;
  mc.width = 6;
  mc.num_encoder_layers = 2;
  mc.task_out_channels = {13, 1, 3};
  mtl::SceneConvModel model(mc, rng);
  auto agg = core::MakeAggregator("mocograd").value();
  optim::Adam opt(model.Parameters(), 3e-3f);
  mtl::MtlTrainer trainer(&model, agg.get(), &opt,
                          {data::TaskKind::kPixelClassification,
                           data::TaskKind::kPixelRegression,
                           data::TaskKind::kPixelRegression},
                          9);
  core::ConflictTracker tracker;

  Rng data_rng(7);
  for (int step = 0; step < 10; ++step) {
    const mtl::StepStats stats =
        trainer.Step(ds.SampleTrainBatches(4, data_rng));
    tracker.RecordFromCosines(3, stats.cosines);
  }
  EXPECT_EQ(tracker.num_steps(), 10);
  EXPECT_EQ(tracker.num_tasks(), 3);
  EXPECT_EQ(tracker.gcd_trace().size(), 10u);
  // GCD values are in [0, 2] by construction.
  for (double gcd : tracker.gcd_trace()) {
    EXPECT_GE(gcd, 0.0);
    EXPECT_LE(gcd, 2.0);
  }
}

TEST(ScenePipelineTest, DepthPredictionsInPlausibleRange) {
  data::SceneConfig sc;
  sc.mode = data::SceneMode::kCityscapes;
  sc.num_train = 32;
  sc.num_test = 16;
  sc.hw = 12;
  data::SceneSim ds(sc);
  auto factory = harness::SceneConvFactory(3, 10, 2);
  harness::TrainConfig cfg;
  cfg.steps = 150;
  cfg.batch_size = 8;
  cfg.lr = 4e-3f;
  cfg.seed = 11;
  auto r = harness::RunMethod(ds, {0, 1}, "ew", factory, cfg);
  // Depth targets live in [0.36, 2.7] (scaled disparity); a trained model's
  // mean absolute error should be well under the target spread.
  EXPECT_LT(r.task_metrics[1][0].value, 0.6);
  // Rel err is a percentage.
  EXPECT_GT(r.task_metrics[1][1].value, 0.0);
  EXPECT_LT(r.task_metrics[1][1].value, 60.0);
}

}  // namespace
}  // namespace mocograd
