#ifndef MOCOGRAD_MTL_TRAINER_H_
#define MOCOGRAD_MTL_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/aggregator.h"
#include "core/conflict.h"
#include "data/batch.h"
#include "mtl/model.h"
#include "mtl/watchdog.h"
#include "obs/phase_profile.h"
#include "obs/telemetry.h"
#include "optim/optimizer.h"

namespace mocograd {
namespace mtl {

/// Statistics of one optimization step.
struct StepStats {
  /// Raw per-task loss values.
  std::vector<float> losses;
  /// Pairwise cosines of the per-task shared gradients, K×K row-major,
  /// symmetric, diagonal 1: the aggregator's published matrix when complete
  /// (obs::AggregatorTrace::cosines_complete), else core::PairwiseCosines
  /// over the task-gradient matrix. Feed it to
  /// core::ConflictTracker::RecordFromCosines to track pairs across steps.
  std::vector<double> cosines;
  /// ConflictStatsFromCosines(K, cosines): the GCD signal of the paper's
  /// analysis (Fig. 2).
  core::ConflictStats conflicts;
  /// Wall-clock seconds of the K backward passes and the aggregation (the
  /// quantity of the paper's Fig. 8): the sum of `phase`'s setup, backward
  /// and aggregate buckets. Excludes the conflict-stats pass.
  double backward_seconds = 0.0;
  /// Wall-clock breakdown of the step, one bucket per phase in step order:
  /// setup, forward, backward, aggregate, conflict_stats, watchdog,
  /// write_back, clip (only when set_max_grad_norm is on), optimizer,
  /// telemetry. Every statement of Step runs in one bucket on the calling
  /// thread, so Total() is the step's wall time at every pool size.
  obs::PhaseProfile phase;
  /// Aggregator-internal sub-phases ("gram", "solver", "combine", ...),
  /// filled by methods that support AggregationContext::profile. A part of
  /// `phase`'s aggregate bucket, not an addition to it.
  obs::PhaseProfile aggregator_phase;
  /// Anomalies the TrainingWatchdog flagged this step (empty when healthy
  /// or when the watchdog is disabled).
  std::vector<obs::WatchdogEvent> watchdog_events;
};

/// The per-task loss for a prediction given its batch and task kind.
autograd::Variable TaskLoss(data::TaskKind kind,
                            const autograd::Variable& pred,
                            const data::Batch& batch);

/// Orchestrates gradient-surgery training:
///   forward all tasks → one backward per task, accumulating its
///   shared-parameter gradients straight into its GradMatrix row →
///   GradientAggregator → write combined gradient back → optimizer step.
/// Task-specific parameters receive only their own task's gradient, scaled
/// by the aggregator's task weights (loss-weighting methods).
class MtlTrainer {
 public:
  /// Borrows all components; they must outlive the trainer. `seed` drives
  /// the trainer's private Rng handed to stochastic aggregators. Aborts
  /// unless the model's SharedParameters() and TaskParameters(t) partition
  /// its Parameters() (each parameter in exactly one set).
  MtlTrainer(MtlModel* model, core::GradientAggregator* aggregator,
             optim::Optimizer* optimizer, std::vector<data::TaskKind> kinds,
             uint64_t seed);

  /// Runs one optimization step on one batch per task (single-input callers
  /// pass batches sharing the same `x`).
  StepStats Step(const std::vector<data::Batch>& batches);

  /// Forward pass only, for evaluation. Builds no tape: the model's
  /// parameters are marked as not requiring grad for the duration of the
  /// call (autograd::NoGradScope, flags restored on return), so every
  /// intermediate is freed as soon as its consumer has run. Returns exactly
  /// the bits Forward(inputs)[k].value() would, and leaves the model's
  /// parameters, gradients and the next Step unchanged.
  std::vector<Tensor> Predict(const std::vector<data::Batch>& batches);

  MtlModel* model() { return model_; }
  int64_t steps_done() const { return step_; }

  /// Optional global-norm gradient clipping applied to the aggregated
  /// update (shared + task-specific gradients jointly) before the
  /// optimizer step; 0 disables (default).
  void set_max_grad_norm(float max_norm) {
    MG_CHECK_GE(max_norm, 0.0f);
    max_grad_norm_ = max_norm;
  }
  float max_grad_norm() const { return max_grad_norm_; }

  /// Optional: stream sampled per-step telemetry records (and every watchdog
  /// event) into `sink` (borrowed; pass nullptr to stop). Observation-only:
  /// attaching a sink never changes RNG streams, accumulation order, or any
  /// computed result.
  void set_telemetry_sink(obs::TelemetrySink* sink) { telemetry_ = sink; }

  /// The watchdog scanning each step's losses and aggregated gradient.
  /// Mutable so callers can tune thresholds or disable it entirely.
  TrainingWatchdog* watchdog() { return &watchdog_; }

 private:
  MtlModel* model_;
  core::GradientAggregator* aggregator_;
  optim::Optimizer* optimizer_;
  std::vector<data::TaskKind> kinds_;
  Rng rng_;
  int64_t step_ = 0;
  float max_grad_norm_ = 0.0f;
  std::string method_name_;       // cached aggregator_->name()
  obs::AggregatorTrace trace_;    // reused across steps (no per-step alloc)
  TrainingWatchdog watchdog_;     // options from env by default
  obs::TelemetrySink* telemetry_ = nullptr;
};

}  // namespace mtl
}  // namespace mocograd

#endif  // MOCOGRAD_MTL_TRAINER_H_
