#include "harness/experiment.h"

#include <algorithm>
#include <cmath>

#include "base/env.h"
#include "eval/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "mtl/cgc.h"
#include "mtl/cross_stitch.h"
#include "mtl/embedding_hps.h"
#include "mtl/hps.h"
#include "mtl/mmoe.h"
#include "mtl/mtan.h"
#include "mtl/scene_model.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"
#include "optim/scheduler.h"

namespace mocograd {
namespace harness {

using data::Batch;
using data::TaskKind;

namespace {

// Filters per-task containers down to the selected subset.
template <typename T>
std::vector<T> Select(const std::vector<T>& all, const std::vector<int>& idx) {
  std::vector<T> out;
  out.reserve(idx.size());
  for (int i : idx) {
    MG_CHECK_GE(i, 0);
    MG_CHECK_LT(i, static_cast<int>(all.size()));
    out.push_back(all[i]);
  }
  return out;
}

int64_t InferNumClasses(const Batch& train_batch, const Batch& test_batch) {
  int64_t mx = 0;
  for (int64_t l : train_batch.labels) mx = std::max(mx, l);
  for (int64_t l : test_batch.labels) mx = std::max(mx, l);
  return mx + 1;
}

std::unique_ptr<optim::Optimizer> MakeOptimizer(
    const std::string& name, std::vector<autograd::Variable*> params,
    float lr) {
  if (name == "adam") {
    return std::make_unique<optim::Adam>(std::move(params), lr);
  }
  if (name == "sgd") {
    return std::make_unique<optim::Sgd>(std::move(params), lr,
                                        /*momentum=*/0.9f);
  }
  if (name == "adagrad") {
    return std::make_unique<optim::Adagrad>(std::move(params), lr);
  }
  MG_FATAL("unknown optimizer: ", name);
}

// Evaluates one task's test batch given predictions.
TaskMetrics EvaluateTask(TaskKind kind, const Tensor& pred,
                         const Batch& test) {
  TaskMetrics out;
  switch (kind) {
    case TaskKind::kBinaryLogistic:
      out.push_back({"auc", eval::Auc(pred, test.y)});
      break;
    case TaskKind::kRegression:
      out.push_back({"rmse", eval::Rmse(pred, test.y)});
      break;
    case TaskKind::kRegressionL1:
    case TaskKind::kRegressionMae:
      out.push_back({"mae", eval::Mae(pred, test.y)});
      break;
    case TaskKind::kClassification:
      out.push_back({"acc", eval::Accuracy(pred, test.labels)});
      break;
    case TaskKind::kPixelClassification: {
      const int classes = static_cast<int>(pred.Dim(1));
      out.push_back({"miou", eval::MeanIou(pred, test.labels, classes)});
      out.push_back({"pixacc", eval::PixelAccuracy(pred, test.labels)});
      break;
    }
    case TaskKind::kPixelRegression:
      if (pred.Dim(1) == 3) {
        const eval::NormalStats s = eval::NormalAngles(pred, test.y);
        out.push_back({"normal_mean", s.mean_deg});
        out.push_back({"normal_median", s.median_deg});
        out.push_back({"within_11.25", s.within_11});
        out.push_back({"within_22.5", s.within_22});
        out.push_back({"within_30", s.within_30});
      } else {
        out.push_back({"abs_err", eval::AbsErr(pred, test.y)});
        out.push_back({"rel_err", eval::RelErr(pred, test.y)});
      }
      break;
  }
  return out;
}

}  // namespace

std::vector<int64_t> TaskOutputDims(const data::MtlDataset& dataset,
                                    const std::vector<int>& tasks) {
  const auto test = dataset.TestBatches();
  std::vector<int64_t> out;
  out.reserve(tasks.size());
  for (int t : tasks) {
    switch (dataset.task_kind(t)) {
      case TaskKind::kBinaryLogistic:
        out.push_back(1);
        break;
      case TaskKind::kRegression:
      case TaskKind::kRegressionL1:
      case TaskKind::kRegressionMae:
        out.push_back(test[t].y.Rank() >= 2 ? test[t].y.Dim(1) : 1);
        break;
      case TaskKind::kClassification:
      case TaskKind::kPixelClassification: {
        const int64_t known = dataset.ClassCount(t);
        out.push_back(known > 0 ? known
                                : InferNumClasses(test[t], test[t]));
        break;
      }
      case TaskKind::kPixelRegression:
        out.push_back(test[t].y.Dim(1));
        break;
    }
  }
  return out;
}

bool HigherIsBetter(const std::string& metric) {
  return metric == "auc" || metric == "acc" || metric == "miou" ||
         metric == "pixacc" || metric.rfind("within_", 0) == 0;
}

RunResult TrainAndEvaluate(const data::MtlDataset& dataset,
                           const std::vector<int>& tasks,
                           core::GradientAggregator* aggregator,
                           const ModelFactory& factory,
                           const TrainConfig& config) {
  MG_CHECK(!tasks.empty());
  Rng init_rng(config.seed);
  Rng data_rng(config.seed ^ 0x5bd1e995u);

  std::vector<int64_t> out_dims = TaskOutputDims(dataset, tasks);
  std::unique_ptr<mtl::MtlModel> model = factory(out_dims, init_rng);
  MG_CHECK_EQ(model->num_tasks(), static_cast<int>(tasks.size()));

  std::vector<TaskKind> kinds;
  for (int t : tasks) kinds.push_back(dataset.task_kind(t));

  auto optimizer = MakeOptimizer(config.optimizer, model->Parameters(),
                                 config.lr);
  std::unique_ptr<optim::LrScheduler> scheduler;
  if (config.lr_schedule == "cosine") {
    scheduler = std::make_unique<optim::CosineLr>(optimizer.get(),
                                                  config.steps);
  } else if (config.lr_schedule == "invsqrt") {
    scheduler = std::make_unique<optim::InverseSqrtLr>(optimizer.get());
  } else if (config.lr_schedule == "step") {
    scheduler = std::make_unique<optim::StepDecayLr>(
        optimizer.get(), std::max(1, config.steps / 3), 0.5f);
  } else {
    MG_CHECK(config.lr_schedule == "constant", "unknown lr_schedule: ",
             config.lr_schedule);
  }
  mtl::MtlTrainer trainer(model.get(), aggregator, optimizer.get(), kinds,
                          config.seed ^ 0x9e3779b9u);

  // Optional conflict-telemetry JSONL (config wins over MOCOGRAD_TELEMETRY /
  // MOCOGRAD_TELEMETRY_EVERY). Attached to the trainer; observation-only.
  const std::string telemetry_path =
      !config.telemetry_jsonl_path.empty()
          ? config.telemetry_jsonl_path
          : GetEnvString("MOCOGRAD_TELEMETRY");
  const int telemetry_every =
      config.telemetry_every > 0
          ? config.telemetry_every
          : GetEnvInt("MOCOGRAD_TELEMETRY_EVERY", 1, 1, 1 << 30);
  std::unique_ptr<obs::TelemetrySink> telemetry_sink;
  if (!telemetry_path.empty()) {
    telemetry_sink =
        std::make_unique<obs::TelemetrySink>(telemetry_path, telemetry_every);
    if (!telemetry_sink->ok()) {
      std::fprintf(stderr, "mocograd: telemetry sink disabled: %s\n",
                   telemetry_sink->status().ToString().c_str());
      telemetry_sink.reset();
    }
    trainer.set_telemetry_sink(telemetry_sink.get());
  }

  RunResult result;
  double gcd_sum = 0.0;
  double backward_sum = 0.0;
  for (int step = 0; step < config.steps; ++step) {
    mtl::StepStats stats;
    {
      MG_TRACE_SCOPE("harness.train_step");
      auto all_batches =
          dataset.SampleTrainBatches(config.batch_size, data_rng);
      auto batches = Select(all_batches, tasks);
      stats = trainer.Step(batches);
      if (scheduler) scheduler->Step();
    }
    gcd_sum += stats.conflicts.mean_gcd;
    backward_sum += stats.backward_seconds;
    result.mean_phase.Merge(stats.phase);
    result.mean_aggregator_phase.Merge(stats.aggregator_phase);
    if (config.loss_curve_every > 0 &&
        step % config.loss_curve_every == 0) {
      result.loss_curve.push_back(stats.losses);
    }
    if (step + 1 == config.steps) result.final_losses = stats.losses;
  }
  result.mean_gcd = gcd_sum / config.steps;
  result.mean_backward_seconds = backward_sum / config.steps;
  result.mean_phase.ScaleAll(1.0 / config.steps);
  result.mean_aggregator_phase.ScaleAll(1.0 / config.steps);

  // Evaluate on the test split.
  const auto test_all = dataset.TestBatches();
  const auto test = Select(test_all, tasks);
  std::vector<Tensor> preds = trainer.Predict(test);
  for (size_t i = 0; i < tasks.size(); ++i) {
    result.task_metrics.push_back(EvaluateTask(kinds[i], preds[i], test[i]));
    result.test_risks.push_back(
        mtl::TaskLoss(kinds[i], autograd::Variable(preds[i], false), test[i])
            .value()
            .Item());
  }
  return result;
}

RunResult RunMethod(const data::MtlDataset& dataset,
                    const std::vector<int>& tasks, const std::string& method,
                    const ModelFactory& factory, const TrainConfig& config,
                    const core::AggregatorOptions& agg_options) {
  auto agg = core::MakeAggregator(method, agg_options);
  MG_CHECK(agg.ok(), agg.status().ToString());
  return TrainAndEvaluate(dataset, tasks, agg.value().get(), factory, config);
}

RunResult StlBaseline(const data::MtlDataset& dataset,
                      const std::vector<int>& tasks,
                      const ModelFactory& factory, const TrainConfig& config) {
  RunResult merged;
  double gcd = 0.0, backward = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    TrainConfig cfg = config;
    cfg.seed = config.seed + 1000 * (i + 1);
    core::EqualWeight ew;
    RunResult r = TrainAndEvaluate(dataset, {tasks[i]}, &ew, factory, cfg);
    merged.task_metrics.push_back(r.task_metrics[0]);
    merged.test_risks.push_back(r.test_risks[0]);
    merged.final_losses.push_back(r.final_losses[0]);
    gcd += r.mean_gcd;
    backward += r.mean_backward_seconds;
    merged.mean_phase.Merge(r.mean_phase);
    merged.mean_aggregator_phase.Merge(r.mean_aggregator_phase);
  }
  merged.mean_gcd = gcd / tasks.size();
  merged.mean_backward_seconds = backward / tasks.size();
  merged.mean_phase.ScaleAll(1.0 / tasks.size());
  merged.mean_aggregator_phase.ScaleAll(1.0 / tasks.size());
  return merged;
}

double ComputeDeltaM(const std::vector<TaskMetrics>& mtl,
                     const std::vector<TaskMetrics>& stl) {
  MG_CHECK_EQ(mtl.size(), stl.size());
  std::vector<core::MetricComparison> cmp;
  for (size_t t = 0; t < mtl.size(); ++t) {
    MG_CHECK_EQ(mtl[t].size(), stl[t].size());
    for (size_t m = 0; m < mtl[t].size(); ++m) {
      MG_CHECK(mtl[t][m].name == stl[t][m].name, "metric order mismatch");
      cmp.push_back({.mtl_value = mtl[t][m].value,
                     .stl_value = stl[t][m].value,
                     .higher_is_better = HigherIsBetter(mtl[t][m].name)});
    }
  }
  return core::DeltaM(cmp);
}

ModelFactory MlpHpsFactory(int64_t input_dim,
                           std::vector<int64_t> shared_dims,
                           std::vector<int64_t> head_hidden) {
  return [=](const std::vector<int64_t>& out_dims, Rng& rng) {
    mtl::HpsConfig cfg;
    cfg.input_dim = input_dim;
    cfg.shared_dims = shared_dims;
    cfg.head_hidden = head_hidden;
    cfg.task_output_dims = out_dims;
    return std::make_unique<mtl::HpsModel>(cfg, rng);
  };
}

ModelFactory EmbeddingHpsFactory(int64_t dense_dim, int64_t num_user_segments,
                                 int64_t num_item_categories) {
  return [=](const std::vector<int64_t>& out_dims, Rng& rng) {
    mtl::EmbeddingHpsConfig cfg;
    cfg.dense_dim = dense_dim;
    cfg.cat_specs = {{num_user_segments, 8}, {num_item_categories, 8}};
    cfg.shared_dims = {64, 32};
    cfg.task_output_dims = out_dims;
    return std::make_unique<mtl::EmbeddingHpsModel>(cfg, rng);
  };
}

ModelFactory SceneConvFactory(int64_t in_channels, int64_t width,
                              int num_encoder_layers) {
  return [=](const std::vector<int64_t>& out_dims, Rng& rng) {
    mtl::SceneConvConfig cfg;
    cfg.in_channels = in_channels;
    cfg.width = width;
    cfg.num_encoder_layers = num_encoder_layers;
    cfg.task_out_channels = out_dims;
    return std::make_unique<mtl::SceneConvModel>(cfg, rng);
  };
}

ModelFactory ArchitectureFactory(const std::string& architecture,
                                 int64_t input_dim) {
  if (architecture == "hps") return MlpHpsFactory(input_dim);
  if (architecture == "cross_stitch") {
    return [=](const std::vector<int64_t>& out_dims, Rng& rng) {
      mtl::CrossStitchConfig cfg;
      cfg.input_dim = input_dim;
      cfg.tower_dims = {48, 32};
      cfg.task_output_dims = out_dims;
      return std::make_unique<mtl::CrossStitchModel>(cfg, rng);
    };
  }
  if (architecture == "mtan") {
    return [=](const std::vector<int64_t>& out_dims, Rng& rng) {
      mtl::MtanConfig cfg;
      cfg.input_dim = input_dim;
      cfg.shared_dims = {64, 32};
      cfg.task_output_dims = out_dims;
      return std::make_unique<mtl::MtanModel>(cfg, rng);
    };
  }
  if (architecture == "mmoe") {
    return [=](const std::vector<int64_t>& out_dims, Rng& rng) {
      mtl::MmoeConfig cfg;
      cfg.input_dim = input_dim;
      cfg.num_experts = 6;
      cfg.expert_dims = {64, 32};
      cfg.task_output_dims = out_dims;
      return std::make_unique<mtl::MmoeModel>(cfg, rng);
    };
  }
  if (architecture == "cgc") {
    return [=](const std::vector<int64_t>& out_dims, Rng& rng) {
      mtl::CgcConfig cfg;
      cfg.input_dim = input_dim;
      cfg.num_shared_experts = 3;
      cfg.num_task_experts = 1;
      cfg.expert_dims = {64, 32};
      cfg.task_output_dims = out_dims;
      return std::make_unique<mtl::CgcModel>(cfg, rng);
    };
  }
  MG_FATAL("unknown architecture: ", architecture);
}

const std::vector<std::string>& AllArchitectureNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "hps", "cross_stitch", "mtan", "mmoe", "cgc"};
  return *names;
}

}  // namespace harness
}  // namespace mocograd
