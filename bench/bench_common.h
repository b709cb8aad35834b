#ifndef MOCOGRAD_BENCH_BENCH_COMMON_H_
#define MOCOGRAD_BENCH_BENCH_COMMON_H_

// Timing helper shared by the kernel and serving benches.

#include "base/check.h"
#include "base/stopwatch.h"

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

}  // namespace bench
}  // namespace mocograd

#endif  // MOCOGRAD_BENCH_BENCH_COMMON_H_
