#ifndef MOCOGRAD_HARNESS_EXPERIMENT_H_
#define MOCOGRAD_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/registry.h"
#include "data/dataset.h"
#include "mtl/model.h"
#include "mtl/trainer.h"
#include "obs/phase_profile.h"

namespace mocograd {
namespace harness {

/// Training hyper-parameters for one run.
struct TrainConfig {
  int steps = 400;
  int batch_size = 64;
  float lr = 1e-2f;
  /// "adam" | "sgd" | "adagrad".
  std::string optimizer = "adam";
  /// "constant" | "cosine" | "invsqrt" | "step" (×0.5 every steps/3).
  std::string lr_schedule = "constant";
  uint64_t seed = 1;
  /// Record per-task training losses every `loss_curve_every` steps
  /// (0 = off); used by the convergence figure.
  int loss_curve_every = 0;
  /// Conflict-telemetry JSONL destination ("-" = stdout, empty = fall back
  /// to the MOCOGRAD_TELEMETRY env var; off when both are empty). Sampled
  /// steps append one typed record with losses, per-task gradient/momentum
  /// norms, the pairwise cosine matrix, and the aggregator's decision trace
  /// — see docs/OBSERVABILITY.md "Conflict telemetry". Observation-only:
  /// enabling it never changes computed results.
  std::string telemetry_jsonl_path;
  /// Telemetry sampling stride (0 = fall back to MOCOGRAD_TELEMETRY_EVERY,
  /// default 1). Watchdog events are written regardless of the stride.
  int telemetry_every = 0;
};

/// One named metric value.
struct MetricValue {
  std::string name;
  double value = 0.0;
};

/// Per-task evaluation results.
using TaskMetrics = std::vector<MetricValue>;

/// Everything a benchmark needs from one training run.
struct RunResult {
  /// Per-task metrics on the test split.
  std::vector<TaskMetrics> task_metrics;
  /// Final training losses.
  std::vector<float> final_losses;
  /// Mean test loss per task (expected-risk estimate used for TCI).
  std::vector<double> test_risks;
  /// loss_curve[i] = per-task losses at the i-th recorded step.
  std::vector<std::vector<float>> loss_curve;
  /// Mean pairwise GCD of task gradients over training (Fig. 2 signal).
  double mean_gcd = 0.0;
  /// Mean seconds spent per step in backward + aggregation (Fig. 8).
  double mean_backward_seconds = 0.0;
  /// Mean per-phase step breakdown over training (mtl::StepStats::phase).
  obs::PhaseProfile mean_phase;
  /// Mean aggregator sub-phases (mtl::StepStats::aggregator_phase).
  obs::PhaseProfile mean_aggregator_phase;
};

/// Builds a fresh model given the per-task head output widths (the task
/// subset under training) and an Rng for initialization.
using ModelFactory = std::function<std::unique_ptr<mtl::MtlModel>(
    const std::vector<int64_t>& task_output_dims, Rng& rng)>;

/// Head output width for each selected task, inferred from the dataset
/// (1 for logits/scalar regression, #classes for classification, channel
/// count for dense maps).
std::vector<int64_t> TaskOutputDims(const data::MtlDataset& dataset,
                                    const std::vector<int>& tasks);

/// True if a larger value of the named metric is better.
bool HigherIsBetter(const std::string& metric);

/// Trains `aggregator` on the selected task subset of `dataset` and
/// evaluates on the test split.
RunResult TrainAndEvaluate(const data::MtlDataset& dataset,
                           const std::vector<int>& tasks,
                           core::GradientAggregator* aggregator,
                           const ModelFactory& factory,
                           const TrainConfig& config);

/// Convenience: builds the named aggregator and runs TrainAndEvaluate.
RunResult RunMethod(const data::MtlDataset& dataset,
                    const std::vector<int>& tasks, const std::string& method,
                    const ModelFactory& factory, const TrainConfig& config,
                    const core::AggregatorOptions& agg_options = {});

/// Single-task baselines: trains one independent model per selected task
/// (the paper's STL rows) and returns per-task metrics/risks in the same
/// order.
RunResult StlBaseline(const data::MtlDataset& dataset,
                      const std::vector<int>& tasks,
                      const ModelFactory& factory, const TrainConfig& config);

/// Δ_M (Eq. 27) of an MTL run against the STL baseline, pairing metrics by
/// name and position.
double ComputeDeltaM(const std::vector<TaskMetrics>& mtl,
                     const std::vector<TaskMetrics>& stl);

/// --- Standard model factories ----------------------------------------------

/// Plain MLP hard-parameter sharing.
ModelFactory MlpHpsFactory(int64_t input_dim,
                           std::vector<int64_t> shared_dims = {64, 32},
                           std::vector<int64_t> head_hidden = {});

/// Embedding + MLP HPS for the AliExpress workload.
ModelFactory EmbeddingHpsFactory(int64_t dense_dim, int64_t num_user_segments,
                                 int64_t num_item_categories);

/// Convolutional HPS for dense scene prediction.
ModelFactory SceneConvFactory(int64_t in_channels = 3, int64_t width = 16,
                              int num_encoder_layers = 2);

/// MLP architecture by name for the Fig. 7 sweep:
/// "hps" | "cross_stitch" | "mtan" | "mmoe" | "cgc".
ModelFactory ArchitectureFactory(const std::string& architecture,
                                 int64_t input_dim);

/// Architecture names in the Fig. 7 order.
const std::vector<std::string>& AllArchitectureNames();

}  // namespace harness
}  // namespace mocograd

#endif  // MOCOGRAD_HARNESS_EXPERIMENT_H_
