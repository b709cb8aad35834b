#ifndef MOCOGRAD_BENCH_MTL_PHASES_H_
#define MOCOGRAD_BENCH_MTL_PHASES_H_

// The measured phases of one run. Each phase adds its metrics, its
// attempted/failed operation counts and free-form notes to a PhaseResult.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "stats.h"
#include "workload.h"

namespace mocograd {
namespace bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// False when a check other than a per-operation one failed.
  bool checks_passed = true;
  std::vector<Metric> metrics;
  /// Diagnostics printed with the results but not reported as metrics.
  std::vector<std::pair<std::string, std::string>> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string name, std::string value) {
    notes.emplace_back(std::move(name), std::move(value));
  }
};

/// Warm-up (optionally checked bitwise against a pool-1 replica), then
/// timed SampleTrainBatches + MtlTrainer::Step until `seconds` have passed
/// since the call and `loss_steps` steps are done. Adds steps_per_s and
/// final_loss.
void RunTraining(const Workload& w, Setup* s, const Seeds& seeds,
                 double seconds, bool check_pool_invariance,
                 PhaseResult* out);

/// Alternates a timed MtlTrainer::Step with a span-traced replay of the
/// same step on a twin replica for `seconds`, then times the core and
/// tensor kernels on the step's shapes. Adds the training per-layer
/// metrics; writes the spans to `spans_path` when it is not empty.
void TraceTraining(const Workload& w, Setup* s, const Seeds& seeds,
                   double seconds, const std::string& spans_path,
                   PhaseResult* out);

/// Open-loop Poisson load for `open_s`, then a closed loop for `closed_s`,
/// through the micro-batcher; every output is checked bitwise against its
/// single-row reference. Adds p50_us, p90_us and capacity_qps, or with
/// `trace` the serving per-layer metrics.
void RunServing(const Workload& w, const Setup& s, const Seeds& seeds,
                double open_s, double closed_s, bool trace,
                PhaseResult* out);

/// Median seconds per call of `fn`, for the per-layer kernel timings. Calls
/// are grouped so one timed sample lasts at least 0.2 ms; samples are taken
/// until `budget_s` has passed, and at least five.
template <typename Fn>
double MedianSecondsPerCall(Fn&& fn, double budget_s) {
  fn();  // warm caches and scratch arenas
  Stopwatch one;
  fn();
  const double first = std::max(one.ElapsedSeconds(), 1e-9);
  const int reps = std::max(1, static_cast<int>(std::ceil(2e-4 / first)));
  std::vector<double> per_call;
  Stopwatch budget;
  while (per_call.size() < 5 || budget.ElapsedSeconds() < budget_s) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(sw.ElapsedSeconds() / reps);
  }
  return Summarize(per_call).median;
}

}  // namespace bench
}  // namespace mocograd

#endif  // MOCOGRAD_BENCH_MTL_PHASES_H_
