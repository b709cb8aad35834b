#include "mtl/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "autograd/ops.h"
#include "base/thread_pool.h"
#include "core/grad_matrix.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/trace.h"

namespace mocograd {
namespace mtl {

namespace ag = autograd;
using data::Batch;
using data::TaskKind;

Variable TaskLoss(TaskKind kind, const Variable& pred, const Batch& batch) {
  switch (kind) {
    case TaskKind::kBinaryLogistic:
      return ag::BceWithLogits(pred, batch.y);
    case TaskKind::kRegression:
    case TaskKind::kRegressionMae:
      return ag::MseLoss(pred, batch.y);
    case TaskKind::kRegressionL1:
      return ag::L1Loss(pred, batch.y);
    case TaskKind::kClassification:
      return ag::SoftmaxCrossEntropy(pred, batch.labels);
    case TaskKind::kPixelClassification:
      return ag::SoftmaxCrossEntropy(ag::ChannelsToLast(pred), batch.labels);
    case TaskKind::kPixelRegression:
      return ag::MseLoss(pred, batch.y);
  }
  MG_FATAL("unhandled TaskKind");
}

MtlTrainer::MtlTrainer(MtlModel* model, core::GradientAggregator* aggregator,
                       optim::Optimizer* optimizer,
                       std::vector<data::TaskKind> kinds, uint64_t seed)
    : model_(model),
      aggregator_(aggregator),
      optimizer_(optimizer),
      kinds_(std::move(kinds)),
      rng_(seed) {
  MG_CHECK(model_ != nullptr && aggregator_ != nullptr &&
           optimizer_ != nullptr);
  method_name_ = aggregator_->name();
  MG_CHECK_EQ(static_cast<int>(kinds_.size()), model_->num_tasks(),
              "one TaskKind per task");

  // Step's K concurrent sweeps write shared leaves into their task's
  // GradMatrix row and task leaves into the parameters' own grad(), and
  // the write-back then overwrites every gradient. Both need the shared
  // and per-task sets to partition Parameters(): a parameter in two sets
  // would be written by two sweeps at once, one in none would keep a stale
  // gradient.
  std::vector<const ag::Node*> listed;
  for (Variable* p : model_->SharedParameters()) {
    listed.push_back(p->node().get());
  }
  for (int t = 0; t < model_->num_tasks(); ++t) {
    for (Variable* p : model_->TaskParameters(t)) {
      listed.push_back(p->node().get());
    }
  }
  std::vector<const ag::Node*> all;
  for (Variable* p : model_->Parameters()) all.push_back(p->node().get());
  std::sort(listed.begin(), listed.end());
  std::sort(all.begin(), all.end());
  MG_CHECK(listed == all, "MtlTrainer: SharedParameters() and the "
           "TaskParameters(t) must partition Parameters(), each parameter "
           "in exactly one set");
}

StepStats MtlTrainer::Step(const std::vector<Batch>& batches) {
  MG_TRACE_SCOPE("trainer.step");
  MG_METRIC_COUNT("trainer.steps", 1);
  const int k = model_->num_tasks();
  MG_CHECK_EQ(static_cast<int>(batches.size()), k, "one batch per task");

  StepStats stats;
  // Next() closes one bucket of stats.phase and opens the next at one clock
  // reading, so the buckets partition the step's wall time at any pool
  // size; the last one also covers the frees at the end of the block.
  std::optional<obs::ScopedPhase> phase(std::in_place, &stats.phase, "setup");
  {
    // Destination maps for the K backward sweeps: task t's shared-parameter
    // leaves at their offset in row t of the GradMatrix, its task leaves
    // into the parameters' own grad().
    const std::vector<Variable*> shared = model_->SharedParameters();
    int64_t shared_dim = 0;
    for (Variable* p : shared) shared_dim += p->NumElements();
    // Rows start unwritten: task t zeroes its own row in its sweep.
    core::GradMatrix task_grads(k, shared_dim, /*zero_fill=*/false);
    std::vector<std::vector<Variable*>> task_params(k);
    // Lookup-only, built here on the calling thread; the sweeps only find()
    // in them. mg_analyze:allow(nondeterminism)
    std::vector<Variable::LeafGrads> dests(k);
    for (int t = 0; t < k; ++t) {
      float* row = task_grads.Row(t);
      for (Variable* p : shared) {
        dests[t].emplace(p->node().get(), row);
        row += p->NumElements();
      }
      task_params[t] = model_->TaskParameters(t);
      for (Variable* p : task_params[t]) {
        dests[t].emplace(p->node().get(), p->mutable_grad().data());
      }
    }

    // Forward all tasks into one tape whose task subgraphs share the
    // parameter leaves (task-separable models build them concurrently).
    phase->Next("forward");
    std::vector<Variable> inputs;
    inputs.reserve(k);
    for (const Batch& b : batches) {
      inputs.emplace_back(b.x, /*requires_grad=*/false);
    }
    std::vector<Variable> preds = model_->Forward(inputs);
    MG_CHECK_EQ(static_cast<int>(preds.size()), k);
    std::vector<Variable> losses;
    losses.reserve(k);
    for (int t = 0; t < k; ++t) {
      losses.push_back(TaskLoss(kinds_[t], preds[t], batches[t]));
      stats.losses.push_back(losses.back().value().Item());
    }

    // One backward per task, each writing its leaf gradients straight into
    // the buffers of `dests`. The sweeps only *read* the shared tape and
    // write disjoint buffers (the constructor's partition check), so the K
    // sweeps launch concurrently on the pool; on the ready-queue engine they
    // additionally overlap at tape-node granularity, and the GEMMs inside
    // each grad_fn still parallelize underneath (nested ParallelFor). Every
    // destination starts from zeros and receives each leaf's merged
    // gradient once, so the results are bit-identical to a serial
    // ZeroGrad+Backward loop for any pool size — see docs/AUTOGRAD.md.
    phase->Next("backward");
    ParallelFor(0, k, 1, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        MG_TRACE_SCOPE("trainer.task_backward");
        MG_METRIC_TIME_SCOPE("trainer.task_backward.seconds");
        std::memset(task_grads.Row(static_cast<int>(t)), 0,
                    shared_dim * sizeof(float));
        for (Variable* p : task_params[t]) p->ZeroGrad();
        losses[t].BackwardInto(dests[t]);
        // Nothing reads this task's tape again: free it here, in parallel,
        // rather than when the step ends.
        losses[t] = Variable();
        preds[t] = Variable();
      }
    });

    // Aggregate. The decision trace is attached unconditionally — it is
    // observation-only by contract, and always filling it keeps every
    // downstream value identical whether or not a telemetry sink is
    // attached.
    phase->Next("aggregate");
    trace_.Begin(method_name_, k);
    core::AggregationContext ctx;
    ctx.task_grads = &task_grads;
    ctx.losses = &stats.losses;
    ctx.step = step_;
    ctx.rng = &rng_;
    ctx.profile = &stats.aggregator_phase;
    ctx.trace = &trace_;
    const core::AggregationResult agg = aggregator_->Aggregate(ctx);
    MG_METRIC_COUNT("trainer.aggregator_conflicts", agg.num_conflicts);
    MG_CHECK_EQ(static_cast<int64_t>(agg.shared_grad.size()), shared_dim);
    MG_CHECK_EQ(static_cast<int>(agg.task_weights.size()), k);

    // Conflict statistics (Fig. 2's GCD signal), every step. A method that
    // published a complete cosine matrix through the trace (MoCoGrad's
    // calibration scan, the Gram-based solvers) already paid for it; for
    // the rest this is one O(K²·P) PairwiseCosines pass.
    phase->Next("conflict_stats");
    stats.backward_seconds = stats.phase.Get("setup") +
                             stats.phase.Get("backward") +
                             stats.phase.Get("aggregate");
    stats.cosines = trace_.cosines_complete()
                        ? trace_.cosine_matrix()
                        : core::PairwiseCosines(task_grads);
    stats.conflicts = core::ConflictStatsFromCosines(k, stats.cosines);
    MG_METRIC_COUNT("trainer.conflicting_pairs",
                    stats.conflicts.num_conflicting_pairs);

    // Watchdog scan over this step's losses and aggregated gradient.
    // Observation-only unless abort_on_event is set.
    phase->Next("watchdog");
    if (watchdog_.options().enabled) {
      stats.watchdog_events = watchdog_.Observe(step_, stats.losses,
                                                agg.shared_grad);
    }
    if (!stats.watchdog_events.empty()) {
      MG_METRIC_COUNT("trainer.watchdog_events",
                      static_cast<int64_t>(stats.watchdog_events.size()));
      for (const obs::WatchdogEvent& ev : stats.watchdog_events) {
        std::fprintf(stderr,
                     "mocograd: watchdog: step %lld: %s (task %d, value %g, "
                     "threshold %g)\n",
                     static_cast<long long>(ev.step), ev.kind.c_str(), ev.task,
                     ev.value, ev.threshold);
        if (telemetry_ != nullptr && telemetry_->ok()) {
          telemetry_->WriteWatchdogEvent(method_name_, ev);
        }
      }
      if (watchdog_.options().abort_on_event) {
        MG_FATAL("watchdog abort: ", stats.watchdog_events.size(),
                 " anomalies at step ", step_, " (first: ",
                 stats.watchdog_events.front().kind, ")");
      }
    }

    // Write the combined gradient back onto the parameters. Every
    // parameter's gradient is overwritten here (the constructor's partition
    // check), so no ZeroGrad pass is needed: shared gradients take the
    // aggregate, task gradients already hold their own sweep's result and
    // are scaled in place by the task weight.
    phase->Next("write_back");
    int64_t off = 0;
    for (Variable* p : shared) {
      const int64_t n = p->NumElements();
      std::memcpy(p->mutable_grad().data(), agg.shared_grad.data() + off,
                  n * sizeof(float));
      off += n;
    }
    for (int t = 0; t < k; ++t) {
      for (Variable* p : task_params[t]) {
        tops::ScaleInPlace(p->mutable_grad(), agg.task_weights[t]);
      }
    }

    // Global-norm clipping over every parameter gradient about to be
    // applied (the LibMTL-style safety net against aggregation spikes).
    if (max_grad_norm_ > 0.0f) {
      phase->Next("clip");
      double total = 0.0;
      for (Variable* p : model_->Parameters()) {
        if (!p->has_grad()) continue;
        const float n = tops::Norm(p->grad());
        total += static_cast<double>(n) * n;
      }
      const double norm = std::sqrt(total);
      if (norm > max_grad_norm_) {
        const float scale = max_grad_norm_ / static_cast<float>(norm);
        for (Variable* p : model_->Parameters()) {
          if (p->has_grad()) tops::ScaleInPlace(p->mutable_grad(), scale);
        }
      }
    }

    phase->Next("optimizer");
    optimizer_->Step();

    // Telemetry record, written last so the phase breakdown it carries is
    // complete but for this bucket. Everything here *reads* finished step
    // state — nothing feeds back.
    phase->Next("telemetry");
    if (telemetry_ != nullptr && telemetry_->ok() &&
        telemetry_->ShouldSample(step_)) {
      obs::TelemetryRecord rec;
      rec.step = step_;
      rec.method = method_name_;
      rec.num_tasks = k;
      rec.losses = stats.losses;
      rec.task_weights = agg.task_weights;
      rec.grad_norms = trace_.grad_norms();
      if (rec.grad_norms.empty()) {
        rec.grad_norms.reserve(k);
        for (int t = 0; t < k; ++t) {
          rec.grad_norms.push_back(task_grads.RowNorm(t));
        }
      }
      rec.momentum_norms = trace_.momentum_norms();
      rec.cosines = stats.cosines;
      rec.mean_gcd = stats.conflicts.mean_gcd;
      rec.max_gcd = stats.conflicts.max_gcd;
      rec.num_conflicting_pairs = stats.conflicts.num_conflicting_pairs;
      rec.num_pairs = stats.conflicts.num_pairs;
      rec.trace = &trace_;
      rec.phase = &stats.phase;
      telemetry_->WriteRecord(rec);
    }
    ++step_;
  }
  phase.reset();
  return stats;
}

std::vector<Tensor> MtlTrainer::Predict(const std::vector<Batch>& batches) {
  const int k = model_->num_tasks();
  MG_CHECK_EQ(static_cast<int>(batches.size()), k);
  std::vector<Variable> inputs;
  inputs.reserve(k);
  for (const Batch& b : batches) {
    inputs.emplace_back(b.x, /*requires_grad=*/false);
  }
  // With every parameter frozen no op keeps its parents, so each task's
  // intermediates die as soon as they are consumed instead of the whole
  // K-task tape living until the predictions are returned.
  const ag::NoGradScope no_grad(model_->Parameters());
  std::vector<Variable> preds = model_->Forward(inputs);
  std::vector<Tensor> out;
  out.reserve(k);
  for (const Variable& p : preds) out.push_back(p.value());
  return out;
}

}  // namespace mtl
}  // namespace mocograd
