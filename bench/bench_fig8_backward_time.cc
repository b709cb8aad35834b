// Reproduces Fig. 8 of the paper: per-iteration backward/aggregation time
// of every method on the AliExpress workload, using google-benchmark for
// the timing harness.
//
// Paper claims under test: MoCoGrad's per-step cost is comparable to
// PCGrad/GradVac (cheap pairwise surgery), while Nash-MTL is the most
// expensive method (it solves a bargaining problem every step).

#include <benchmark/benchmark.h>

#include <memory>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "core/registry.h"
#include "data/aliexpress.h"
#include "harness/experiment.h"
#include "mtl/trainer.h"
#include "obs/phase_profile.h"
#include "optim/optimizer.h"

namespace mocograd {
namespace {

// Thread-pool sizes for the threads column: how the per-step backward cost
// scales when the K per-task sweeps and the GEMMs inside them go parallel.
// Wall-clock speedup obviously requires the host to actually have that many
// cores; on a single-core machine the column only measures pool overhead.
const int kThreadCounts[] = {1, 2, 4};

// One fixture per method and pool size: build model/trainer once, then time
// Step().
void BM_BackwardStep(benchmark::State& state, const std::string& method,
                     int num_threads) {
  ThreadPool::SetGlobalNumThreads(num_threads);
  data::AliExpressConfig dc;
  dc.num_train = 2000;
  dc.num_test = 100;
  data::AliExpressSim ds(dc);

  Rng init_rng(7);
  auto factory = harness::EmbeddingHpsFactory(dc.dense_dim,
                                              dc.num_user_segments,
                                              dc.num_item_categories);
  auto out_dims = harness::TaskOutputDims(ds, {0, 1});
  auto model = factory(out_dims, init_rng);
  auto aggregator = core::MakeAggregator(method).value();
  optim::Adam opt(model->Parameters(), 2e-3f);
  mtl::MtlTrainer trainer(model.get(), aggregator.get(), &opt,
                          {data::TaskKind::kBinaryLogistic,
                           data::TaskKind::kBinaryLogistic},
                          /*seed=*/11);

  Rng data_rng(13);
  double backward_seconds = 0.0;
  double step_seconds = 0.0;
  obs::PhaseProfile phases;
  obs::PhaseProfile aggregator_phases;
  int64_t steps = 0;
  for (auto _ : state) {
    auto batches = ds.SampleTrainBatches(64, data_rng);
    Stopwatch step_timer;
    mtl::StepStats stats = trainer.Step(batches);
    step_seconds += step_timer.ElapsedSeconds();
    backward_seconds += stats.backward_seconds;
    phases.Merge(stats.phase);
    aggregator_phases.Merge(stats.aggregator_phase);
    ++steps;
    benchmark::DoNotOptimize(stats.losses);
  }
  const double inv = 1e3 / std::max<int64_t>(steps, 1);
  state.counters["backward_ms_per_iter"] =
      benchmark::Counter(inv * backward_seconds);
  // Where each method's step goes: the <phase>_ms columns sum to
  // step_ms_per_iter at every pool size, backward_ms_per_iter (Fig. 8) is
  // setup + backward + aggregate, and the agg_<sub>_ms columns split
  // aggregate_ms into the method's sub-phases (gram, solver, ...).
  state.counters["step_ms_per_iter"] = benchmark::Counter(inv * step_seconds);
  for (const auto& [name, seconds] : phases.entries()) {
    state.counters[name + "_ms"] = benchmark::Counter(inv * seconds);
  }
  for (const auto& [name, seconds] : aggregator_phases.entries()) {
    state.counters["agg_" + name + "_ms"] = benchmark::Counter(inv * seconds);
  }
  state.counters["threads"] = benchmark::Counter(num_threads);
  ThreadPool::SetGlobalNumThreads(1);
}

// Aggregation-only cost at QM9 scale (K = 11 tasks) over a larger
// flattened-gradient dimension, isolating each method's per-step solver /
// surgery cost from the (method-independent) backward passes.
void BM_AggregateOnly(benchmark::State& state, const std::string& method,
                      int num_tasks, int64_t dim) {
  auto aggregator = core::MakeAggregator(method).value();
  Rng data_rng(3);
  core::GradMatrix grads(num_tasks, dim);
  for (int t = 0; t < num_tasks; ++t) {
    float* row = grads.Row(t);
    for (int64_t q = 0; q < dim; ++q) row[q] = data_rng.Normal();
  }
  std::vector<float> losses(num_tasks, 1.0f);
  Rng rng(5);
  obs::PhaseProfile profile;
  core::AggregationContext ctx;
  ctx.task_grads = &grads;
  ctx.losses = &losses;
  ctx.rng = &rng;
  ctx.profile = &profile;
  int64_t step = 0;
  for (auto _ : state) {
    ctx.step = step++;
    auto r = aggregator->Aggregate(ctx);
    benchmark::DoNotOptimize(r.shared_grad.data());
  }
  // Sub-phase attribution from the aggregator itself (zero rows for
  // buckets the method never enters).
  const double inv = 1e3 / std::max<int64_t>(step, 1);
  for (const auto& sub : profile.entries()) {
    state.counters[sub.first + "_ms"] = benchmark::Counter(inv * sub.second);
  }
}

void RegisterAll() {
  for (const std::string& m : core::PaperMethodNames()) {
    for (int threads : kThreadCounts) {
      benchmark::RegisterBenchmark(
          ("Fig8/backward_time/" + m + "/threads:" + std::to_string(threads))
              .c_str(),
          [m, threads](benchmark::State& st) {
            BM_BackwardStep(st, m, threads);
          })
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.5);
    }
  }
  for (const std::string& m : core::PaperMethodNames()) {
    benchmark::RegisterBenchmark(
        ("Fig8/aggregate_only_k11/" + m).c_str(),
        [m](benchmark::State& st) { BM_AggregateOnly(st, m, 11, 200000); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.3);
  }
}

}  // namespace
}  // namespace mocograd

int main(int argc, char** argv) {
  mocograd::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf(
      "\nFig. 8 shape under test: MoCoGrad has per-iteration cost comparable "
      "to\nPCGrad/GradVac. Note: the paper's Nash-MTL spike comes from its "
      "cvxpy-based\nbargaining solver; this reproduction replaces it with a "
      "native damped\nfixed-point iteration, so Nash-MTL's aggregation "
      "overhead largely vanishes\n(documented deviation, EXPERIMENTS.md).\n");
  return 0;
}
