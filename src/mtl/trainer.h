#ifndef MOCOGRAD_MTL_TRAINER_H_
#define MOCOGRAD_MTL_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/aggregator.h"
#include "core/analysis.h"
#include "core/conflict.h"
#include "data/batch.h"
#include "mtl/model.h"
#include "mtl/watchdog.h"
#include "obs/phase_profile.h"
#include "obs/telemetry.h"
#include "optim/optimizer.h"

namespace mocograd {
namespace mtl {

/// Wall-clock attribution of one MtlTrainer::Step, phase by phase. The
/// eight buckets partition the step: Total() matches the step's wall-clock
/// on a single-core pool, and sums *CPU* time when the per-task backward
/// sweeps run on several workers (backward/flatten accumulate per task).
struct StepPhaseTimes {
  /// Forward pass of all K tasks (including loss evaluation).
  double forward = 0.0;
  /// Per-task tape walks (BackwardInto), summed over tasks.
  double backward = 0.0;
  /// Each task zeroing its GradMatrix row and its task parameters' grads
  /// before its sweep accumulates into them, summed over tasks. (Named
  /// `flatten` because harness reports, bench_fig8 and the telemetry
  /// `phase_seconds` key on it.)
  double flatten = 0.0;
  /// ComputeConflictStats on the task-gradient matrix (Fig. 2 signal).
  double conflict_stats = 0.0;
  /// GradientAggregator::Aggregate — see `aggregator` for its sub-phases.
  double aggregate = 0.0;
  /// Writing the combined + task-specific gradients back onto parameters.
  double write_back = 0.0;
  /// Optional global-norm clipping.
  double clip = 0.0;
  /// Optimizer step.
  double optimizer = 0.0;

  /// Aggregator-internal sub-phases ("gram", "solver", "combine", ...),
  /// filled by methods that support AggregationContext::profile. A subset
  /// of `aggregate`, not an addition to Total().
  obs::PhaseProfile aggregator;

  /// Sum of the eight top-level buckets.
  double Total() const {
    return forward + backward + flatten + conflict_stats + aggregate +
           write_back + clip + optimizer;
  }

  /// Accumulates another step's times bucket-by-bucket (harness averaging).
  void Accumulate(const StepPhaseTimes& other) {
    forward += other.forward;
    backward += other.backward;
    flatten += other.flatten;
    conflict_stats += other.conflict_stats;
    aggregate += other.aggregate;
    write_back += other.write_back;
    clip += other.clip;
    optimizer += other.optimizer;
    aggregator.Merge(other.aggregator);
  }

  /// Scales every bucket (including aggregator sub-phases) by `s`.
  void Scale(double s) {
    forward *= s;
    backward *= s;
    flatten *= s;
    conflict_stats *= s;
    aggregate *= s;
    write_back *= s;
    clip *= s;
    optimizer *= s;
    aggregator.ScaleAll(s);
  }
};

/// Statistics of one optimization step.
struct StepStats {
  /// Raw per-task loss values.
  std::vector<float> losses;
  /// Pairwise conflict statistics of the per-task shared gradients — the
  /// GCD signal used in the paper's analysis (Fig. 2). All-zero when the
  /// trainer's conflict-stats pass is disabled.
  core::ConflictStats conflicts;
  /// Conflicts the aggregation method itself acted on.
  int aggregator_conflicts = 0;
  /// Wall-clock seconds spent in the K backward passes + aggregation (the
  /// quantity of the paper's Fig. 8).
  double backward_seconds = 0.0;
  /// Per-phase wall-clock breakdown of the whole step.
  StepPhaseTimes phase;
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

  /// Optional: record every step's task-gradient matrix into a
  /// ConflictTracker (borrowed; pass nullptr to stop tracking).
  void set_conflict_tracker(core::ConflictTracker* tracker) {
    tracker_ = tracker;
  }

  /// Toggles the per-step ComputeConflictStats pass (default on). The pass
  /// is O(K²·P) analysis-only work; throughput benchmarks that never read
  /// `StepStats::conflicts` can switch it off. Does not affect the
  /// ConflictTracker or any training result.
  void set_conflict_stats_enabled(bool enabled) {
    conflict_stats_enabled_ = enabled;
  }
  bool conflict_stats_enabled() const { return conflict_stats_enabled_; }

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

  /// The decision trace the aggregator filled during the most recent Step
  /// (cosines, per-pair calibration/projection decisions, solver weights).
  const obs::AggregatorTrace& last_trace() const { return trace_; }

 private:
  MtlModel* model_;
  core::GradientAggregator* aggregator_;
  optim::Optimizer* optimizer_;
  std::vector<data::TaskKind> kinds_;
  Rng rng_;
  int64_t step_ = 0;
  core::ConflictTracker* tracker_ = nullptr;
  float max_grad_norm_ = 0.0f;
  bool conflict_stats_enabled_ = true;
  std::string method_name_;       // cached aggregator_->name()
  obs::AggregatorTrace trace_;    // reused across steps (no per-step alloc)
  TrainingWatchdog watchdog_;     // options from env by default
  obs::TelemetrySink* telemetry_ = nullptr;
};

}  // namespace mtl
}  // namespace mocograd

#endif  // MOCOGRAD_MTL_TRAINER_H_
