// Training phases: the timed trainer loop and the span-traced step replay.

#include <cmath>
#include <cstring>
#include <optional>

#include "base/thread_pool.h"
#include "core/conflict.h"
#include "core/grad_matrix.h"
#include "mtl/watchdog.h"
#include "obs/phase_profile.h"
#include "phases.h"
#include "span_trace.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mocograd {
namespace bench {

using autograd::Variable;

namespace {

bool AllFinite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Mean task loss of the trainer's model on the test split.
double TestLoss(const Workload& w, Setup* s) {
  const std::vector<data::Batch> test = s->dataset->TestBatches();
  const std::vector<Tensor> preds = s->trainer->Predict(test);
  const std::vector<data::TaskKind> kinds = TaskKinds(w);
  double sum = 0.0;
  for (size_t t = 0; t < test.size(); ++t) {
    sum += mtl::TaskLoss(kinds[t], Variable(preds[t], false), test[t])
               .value()
               .Item();
  }
  return sum / static_cast<double>(test.size());
}

// Span names of the traced replay. Each wraps one public call that
// MtlTrainer::Step makes (or, for data.sample, that its caller makes).
enum SpanName {
  kStep,
  kSample,
  kForward,
  kLoss,
  kFlatten,
  kBackwardWall,
  kBackwardTask,
  kAggregate,
  kConflictStats,
  kWatchdog,
  kWriteBack,
  kOptimStep,
  kTeardown,
  kNumSpanNames
};

std::vector<std::string> SpanNames() {
  return {"trainer.step",        "data.sample",        "mtl.forward",
          "mtl.loss",            "core.flatten",       "autograd.backward_wall",
          "autograd.backward",   "core.aggregate",     "core.conflict_stats",
          "mtl.watchdog",        "optim.write_back",   "optim.step",
          "mtl.teardown"};
}

// MtlTrainer::Step rebuilt from the same public calls, in the same order,
// on a twin replica, with a span around each layer call. Given the same
// batches it must leave the twin's parameters bitwise equal to the
// trainer's; if it does not, Step has changed and the spans describe
// something else.
class StepReplay {
 public:
  StepReplay(const Workload& w, const Seeds& seeds)
      : replica_(MakeReplica(w, seeds.init)),
        kinds_(TaskKinds(w)),
        rng_(seeds.trainer),
        watchdog_(mtl::WatchdogOptions{}),
        method_(replica_.aggregator->name()) {}

  mtl::MtlModel& model() { return *replica_.model; }
  const core::GradMatrix& last_grads() const { return *last_grads_; }
  int64_t conflicts() const { return conflicts_; }
  int64_t pairs() const { return pairs_; }

  void Step(const std::vector<data::Batch>& batches, SpanRecorder* rec) {
    mtl::MtlModel* model = replica_.model.get();
    const int k = model->num_tasks();
    ScopedSpan step(rec, kStep, -1);
    const int root = step.id();

    std::vector<Variable> preds;
    {
      ScopedSpan span(rec, kForward, root);
      std::vector<Variable> inputs;
      inputs.reserve(k);
      for (const data::Batch& b : batches) inputs.emplace_back(b.x, false);
      preds = model->Forward(inputs);
    }
    std::vector<Variable> losses;
    std::vector<float> loss_values;
    {
      ScopedSpan span(rec, kLoss, root);
      losses.reserve(k);
      for (int t = 0; t < k; ++t) {
        losses.push_back(mtl::TaskLoss(kinds_[t], preds[t], batches[t]));
        loss_values.push_back(losses.back().value().Item());
      }
    }

    std::vector<Variable*> shared;
    std::optional<core::GradMatrix> grads;
    {
      ScopedSpan span(rec, kFlatten, root);
      shared = model->SharedParameters();
      int64_t shared_dim = 0;
      for (Variable* p : shared) shared_dim += p->NumElements();
      grads.emplace(k, shared_dim);
    }
    std::vector<std::vector<Tensor>> task_grads(k);
    std::vector<Variable::GradSink> sinks(k);
    {
      ScopedSpan wall(rec, kBackwardWall, root);
      const int wall_id = wall.id();
      ParallelFor(0, k, 1, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          Variable::GradSink& sink = sinks[t];
          {
            ScopedSpan span(rec, kBackwardTask, wall_id);
            losses[t].BackwardInto(&sink);
          }
          ScopedSpan span(rec, kFlatten, wall_id);
          float* row = grads->Row(static_cast<int>(t));
          int64_t off = 0;
          for (Variable* p : shared) {
            const int64_t n = p->NumElements();
            auto it = sink.find(p->node().get());
            if (it != sink.end()) {
              std::memcpy(row + off, it->second.data(), n * sizeof(float));
            } else {
              std::memset(row + off, 0, n * sizeof(float));
            }
            off += n;
          }
          for (Variable* p : model->TaskParameters(static_cast<int>(t))) {
            auto it = sink.find(p->node().get());
            task_grads[t].push_back(
                it != sink.end() ? it->second : Tensor::Zeros(p->shape()));
          }
        }
      });
    }

    core::AggregationResult agg;
    {
      ScopedSpan span(rec, kAggregate, root);
      trace_.Begin(method_, k);
      obs::PhaseProfile profile;
      core::AggregationContext ctx;
      ctx.task_grads = &*grads;
      ctx.losses = &loss_values;
      ctx.step = step_;
      ctx.rng = &rng_;
      ctx.profile = &profile;
      ctx.trace = &trace_;
      agg = replica_.aggregator->Aggregate(ctx);
    }
    {
      ScopedSpan span(rec, kConflictStats, root);
      if (trace_.cosines_complete()) {
        core::ConflictStatsFromCosines(k, trace_.cosine_matrix());
      } else {
        core::ConflictStatsFromCosines(k, core::PairwiseCosines(*grads));
      }
    }
    {
      ScopedSpan span(rec, kWatchdog, root);
      watchdog_.Observe(step_, loss_values, agg.shared_grad);
    }
    {
      ScopedSpan span(rec, kWriteBack, root);
      model->ZeroGrad();
      int64_t off = 0;
      for (Variable* p : shared) {
        const int64_t n = p->NumElements();
        std::memcpy(p->mutable_grad().data(), agg.shared_grad.data() + off,
                    n * sizeof(float));
        off += n;
      }
      for (int t = 0; t < k; ++t) {
        std::vector<Variable*> params = model->TaskParameters(t);
        for (size_t i = 0; i < params.size(); ++i) {
          Tensor& g = params[i]->mutable_grad();
          g.CopyFrom(task_grads[t][i]);
          tops::ScaleInPlace(g, agg.task_weights[t]);
        }
      }
    }
    {
      ScopedSpan span(rec, kOptimStep, root);
      replica_.optimizer->Step();
    }
    conflicts_ += agg.num_conflicts;
    pairs_ += static_cast<int64_t>(k) * (k - 1);
    ++step_;

    // What Step's return frees: the tape, the sinks and the gradient rows.
    // The matrix is kept for the kernel timings after the replay.
    ScopedSpan span(rec, kTeardown, root);
    preds.clear();
    losses.clear();
    sinks.clear();
    task_grads.clear();
    agg = core::AggregationResult{};
    last_grads_ = std::move(grads);
  }

 private:
  Replica replica_;
  std::vector<data::TaskKind> kinds_;
  Rng rng_;
  mtl::TrainingWatchdog watchdog_;
  obs::AggregatorTrace trace_;
  std::string method_;
  int64_t step_ = 0;
  std::optional<core::GradMatrix> last_grads_;
  int64_t conflicts_ = 0;
  int64_t pairs_ = 0;
};

}  // namespace

void RunTraining(const Workload& w, Setup* s, const Seeds& seeds,
                 double seconds, bool check_pool_invariance,
                 PhaseResult* out) {
  Stopwatch phase;
  Rng data_rng(seeds.data);
  std::vector<std::vector<data::Batch>> warmup;
  for (int i = 0; i < w.warmup_steps; ++i) {
    warmup.push_back(s->dataset->SampleTrainBatches(kBatchSize, data_rng));
  }

  // Results must not depend on the pool size: the warm-up steps also run
  // on a pool-1 replica, which must end bitwise equal.
  Replica twin;
  if (check_pool_invariance) {
    twin = MakeReplica(w, seeds.init);
    std::unique_ptr<mtl::MtlTrainer> twin_trainer =
        MakeTrainer(w, &twin, seeds.trainer);
    ThreadPool::SetGlobalNumThreads(1);
    for (const auto& b : warmup) twin_trainer->Step(b);
  }
  ThreadPool::SetGlobalNumThreads(kTrainThreads);
  const double initial_loss = TestLoss(w, s);
  for (const auto& b : warmup) {
    const mtl::StepStats st = s->trainer->Step(b);
    ++out->attempted;
    if (!AllFinite(st.losses)) ++out->failed;
  }
  if (check_pool_invariance) {
    const bool same = SameParameters(*twin.model, *s->replica.model);
    out->Note("train.pool_invariant", same ? "true" : "false");
    if (!same) out->checks_passed = false;
    twin = Replica{};
  }

  std::vector<double> step_s;
  double final_loss = 0.0;
  for (int i = 0; i < w.loss_steps || phase.ElapsedSeconds() < seconds;
       ++i) {
    Stopwatch sw;
    const std::vector<data::Batch> batches =
        s->dataset->SampleTrainBatches(kBatchSize, data_rng);
    const mtl::StepStats st = s->trainer->Step(batches);
    step_s.push_back(sw.ElapsedSeconds());
    ++out->attempted;
    if (!AllFinite(st.losses)) ++out->failed;
    if (i + 1 == w.loss_steps) final_loss = TestLoss(w, s);
  }
  const bool loss_fell = final_loss < initial_loss;
  const Summary step = Summarize(step_s);

  out->Add("steps_per_s", 1.0 / step.median, "1/s");
  out->Add("final_loss", final_loss, "mse");
  out->Note("train.steps_timed", std::to_string(step.n));
  out->Note("train.step_ms_p25_p50_p75",
            std::to_string(step.p25 * 1e3) + " " +
                std::to_string(step.median * 1e3) + " " +
                std::to_string(step.p75 * 1e3));
  out->Note("train.initial_test_loss", std::to_string(initial_loss));
  out->Note("train.loss_fell", loss_fell ? "true" : "false");
  if (!loss_fell) out->checks_passed = false;
}

void TraceTraining(const Workload& w, Setup* s, const Seeds& seeds,
                   double seconds, const std::string& spans_path,
                   PhaseResult* out) {
  ThreadPool::SetGlobalNumThreads(kTrainThreads);
  StepReplay replay(w, seeds);
  // Upper bound on spans one iteration records: the step's own spans, two
  // per task, and data.sample.
  const size_t spans_per_step = kNumSpanNames + 2 * w.num_tasks + 1;
  SpanRecorder rec(SpanNames(), spans_per_step * 4096);
  Rng data_rng(seeds.data);

  for (int i = 0; i < w.warmup_steps; ++i) {
    const auto batches = s->dataset->SampleTrainBatches(kBatchSize, data_rng);
    s->trainer->Step(batches);
    replay.Step(batches, nullptr);
  }

  // Each iteration times the real Step, then replays the same batches
  // traced; the trainer and the twin see identical inputs in lockstep.
  std::vector<double> step_s;
  Stopwatch phase;
  for (int i = 0; i < 3 || phase.ElapsedSeconds() < seconds; ++i) {
    if (rec.size() + spans_per_step > rec.capacity()) break;
    std::vector<data::Batch> batches;
    {
      ScopedSpan span(&rec, kSample, -1);
      batches = s->dataset->SampleTrainBatches(kBatchSize, data_rng);
    }
    Stopwatch sw;
    s->trainer->Step(batches);
    step_s.push_back(sw.ElapsedSeconds());
    replay.Step(batches, &rec);
  }
  const bool bitwise = SameParameters(*s->replica.model, replay.model());

  const std::vector<Span> spans = rec.Recorded();
  const SpanTotals tot = TotalsByName(spans, kNumSpanNames);
  const double steps = static_cast<double>(tot.count[kStep]);
  const auto ms = [&](double total_s) { return total_s / steps * 1e3; };
  std::vector<double> replay_s;
  for (const Span& sp : spans) {
    if (sp.name == kStep) replay_s.push_back((sp.end_ns - sp.start_ns) * 1e-9);
  }
  const double step_median = Summarize(step_s).median;
  const double wall = tot.duration_s[kBackwardWall];
  const double busy = tot.duration_s[kBackwardTask];

  out->Add("data.sample_ms", ms(tot.self_s[kSample]), "ms");
  out->Add("mtl.forward_ms", ms(tot.self_s[kForward]), "ms");
  out->Add("mtl.loss_ms", ms(tot.self_s[kLoss]), "ms");
  out->Add("autograd.backward_wall_ms", ms(wall), "ms");
  out->Add("autograd.backward_busy_ms", ms(busy), "ms");
  out->Add("autograd.parallel_eff", busy / (wall * kTrainThreads), "ratio");
  out->Add("core.flatten_ms", ms(tot.self_s[kFlatten]), "ms");
  out->Add("core.aggregate_ms", ms(tot.self_s[kAggregate]), "ms");
  out->Add("core.conflict_stats_ms", ms(tot.self_s[kConflictStats]), "ms");
  out->Add("core.conflict_ratio",
           static_cast<double>(replay.conflicts()) /
               std::max<int64_t>(replay.pairs(), 1),
           "ratio");
  out->Add("mtl.watchdog_ms", ms(tot.self_s[kWatchdog]), "ms");
  out->Add("optim.write_back_ms", ms(tot.self_s[kWriteBack]), "ms");
  out->Add("optim.step_ms", ms(tot.self_s[kOptimStep]), "ms");
  out->Add("mtl.teardown_ms", ms(tot.self_s[kTeardown]), "ms");
  out->Add("trainer.step_ms", step_median * 1e3, "ms");
  out->Add("trainer.unattributed_frac",
           tot.self_s[kStep] / tot.duration_s[kStep], "ratio");
  out->Add("trace.overhead_frac",
           Summarize(replay_s).median / step_median - 1.0, "ratio");

  // Kernel timings on this step's shapes, outside the replayed steps.
  const core::GradMatrix& g = replay.last_grads();
  out->Add("core.gram_ms",
           MedianSecondsPerCall([&] { return g.Gram(); }, 0.02 * seconds) *
               1e3,
           "ms");
  out->Add("core.pairwise_cosines_ms",
           MedianSecondsPerCall([&] { return core::PairwiseCosines(g); },
                                0.02 * seconds) *
               1e3,
           "ms");
  const auto [k, n] = WidestLayer(s->serve_model->plan());
  const int64_t m = kBatchSize;
  Rng rng(seeds.init ^ 0x9e77);
  std::vector<float> x(m * k), wt(k * n), y(m * n), dw(k * n);
  for (float& v : x) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : wt) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : y) v = rng.Uniform(-1.0f, 1.0f);
  const double flops = 2.0 * m * n * k;
  const double fwd = MedianSecondsPerCall(
      [&] {
        Gemm(false, false, m, n, k, 1.0f, x.data(), k, wt.data(), n, 0.0f,
             y.data(), n);
      },
      0.01 * seconds);
  // Weight gradient: dW[k,n] = X^T[k,m] * dY[m,n].
  const double wgrad = MedianSecondsPerCall(
      [&] {
        Gemm(true, false, k, n, m, 1.0f, x.data(), k, y.data(), n, 0.0f,
             dw.data(), n);
      },
      0.01 * seconds);
  out->Add("tensor.gemm_gflops.fwd", flops / fwd * 1e-9, "GFLOP/s");
  out->Add("tensor.gemm_gflops.wgrad", flops / wgrad * 1e-9, "GFLOP/s");

  out->Note("trace.replay_bitwise", bitwise ? "true" : "false");
  out->Note("trace.replay_steps", std::to_string(tot.count[kStep]));
  out->Note("trace.spans", std::to_string(spans.size()));
  out->Note("trace.widest_layer", std::to_string(k) + "x" + std::to_string(n));
  if (!spans_path.empty() && !rec.WriteTsv(spans_path)) {
    out->Note("trace.spans_file", "write failed: " + spans_path);
  }
}

}  // namespace bench
}  // namespace mocograd
