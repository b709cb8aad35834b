#ifndef MOCOGRAD_BENCH_BENCH_COMMON_H_
#define MOCOGRAD_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure reproduction benches. Each bench
// binary regenerates one table or figure of the paper: it trains every
// method on the corresponding workload simulator and prints measured values
// next to the paper's published numbers. Absolute values differ (synthetic
// CPU-scale workloads vs the authors' GPU testbed); the claims under test
// are the *shapes* — see EXPERIMENTS.md.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "base/stopwatch.h"
#include "base/table.h"
#include "harness/experiment.h"

namespace mocograd {
namespace bench {

/// Best-of-`trials` wall-clock timing: one untimed warm-up call (faults in
/// pages, primes the pool and scratch arenas), then `trials` timed runs of
/// `reps` calls each, returning the *minimum* seconds per call. The minimum
/// is the standard micro-benchmark estimator — noise (preemption, frequency
/// ramps, cache pollution) only ever adds time, so the fastest trial is the
/// closest observation of the true cost.
template <typename Fn>
double BestSecondsPerRep(int trials, int reps, Fn&& run) {
  MG_CHECK_GE(trials, 1);
  MG_CHECK_GE(reps, 1);
  run();  // warm up
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) run();
    const double per_rep = sw.ElapsedSeconds() / reps;
    if (t == 0 || per_rep < best) best = per_rep;
  }
  return best;
}

/// Number of seeds averaged per configuration (the paper averages 10 runs;
/// we default to 3 to keep the full suite in CPU-minutes). Override with
/// the MOCOGRAD_BENCH_SEEDS environment variable.
inline int NumSeeds() {
  if (const char* env = std::getenv("MOCOGRAD_BENCH_SEEDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 3;
}

/// Display name of a method as it appears in the paper's tables.
inline std::string PaperName(const std::string& method) {
  static const std::map<std::string, std::string> kNames = {
      {"ew", "EW"},           {"dwa", "DWA"},
      {"mgda", "MGDA"},       {"pcgrad", "PCGrad"},
      {"graddrop", "GradDrop"}, {"gradvac", "GradVac"},
      {"cagrad", "CAGrad"},   {"imtl", "IMTL"},
      {"rlw", "RLW"},         {"nashmtl", "Nash-MTL"},
      {"mocograd", "MoCoGrad"}};
  auto it = kNames.find(method);
  return it != kNames.end() ? it->second : method;
}

/// Averages RunResults over seeds: metric values, risks and timings are
/// averaged elementwise.
inline harness::RunResult AverageResults(
    const std::vector<harness::RunResult>& runs) {
  MG_CHECK(!runs.empty());
  harness::RunResult avg = runs[0];
  for (size_t r = 1; r < runs.size(); ++r) {
    const harness::RunResult& x = runs[r];
    for (size_t t = 0; t < avg.task_metrics.size(); ++t) {
      for (size_t m = 0; m < avg.task_metrics[t].size(); ++m) {
        avg.task_metrics[t][m].value += x.task_metrics[t][m].value;
      }
    }
    for (size_t t = 0; t < avg.test_risks.size(); ++t) {
      avg.test_risks[t] += x.test_risks[t];
    }
    avg.mean_gcd += x.mean_gcd;
    avg.mean_backward_seconds += x.mean_backward_seconds;
    for (size_t i = 0; i < avg.loss_curve.size() && i < x.loss_curve.size();
         ++i) {
      for (size_t t = 0; t < avg.loss_curve[i].size(); ++t) {
        avg.loss_curve[i][t] += x.loss_curve[i][t];
      }
    }
  }
  const double inv = 1.0 / runs.size();
  for (auto& tm : avg.task_metrics) {
    for (auto& mv : tm) mv.value *= inv;
  }
  for (auto& r : avg.test_risks) r *= inv;
  avg.mean_gcd *= inv;
  avg.mean_backward_seconds *= inv;
  for (auto& row : avg.loss_curve) {
    for (auto& v : row) v *= static_cast<float>(inv);
  }
  return avg;
}

/// Runs one method over NumSeeds() seeds and averages.
inline harness::RunResult RunAveraged(
    const data::MtlDataset& ds, const std::vector<int>& tasks,
    const std::string& method, const harness::ModelFactory& factory,
    harness::TrainConfig cfg,
    const core::AggregatorOptions& opts = {}) {
  std::vector<harness::RunResult> runs;
  for (int s = 0; s < NumSeeds(); ++s) {
    cfg.seed = 1 + s;
    runs.push_back(harness::RunMethod(ds, tasks, method, factory, cfg, opts));
  }
  return AverageResults(runs);
}

/// Runs the STL baseline over NumSeeds() seeds and averages.
inline harness::RunResult StlAveraged(const data::MtlDataset& ds,
                                      const std::vector<int>& tasks,
                                      const harness::ModelFactory& factory,
                                      harness::TrainConfig cfg) {
  std::vector<harness::RunResult> runs;
  for (int s = 0; s < NumSeeds(); ++s) {
    cfg.seed = 1 + s;
    runs.push_back(harness::StlBaseline(ds, tasks, factory, cfg));
  }
  return AverageResults(runs);
}

inline std::vector<int> AllTasks(const data::MtlDataset& ds) {
  std::vector<int> tasks(ds.num_tasks());
  for (int i = 0; i < ds.num_tasks(); ++i) tasks[i] = i;
  return tasks;
}

}  // namespace bench
}  // namespace mocograd

#endif  // MOCOGRAD_BENCH_BENCH_COMMON_H_
