#ifndef MOCOGRAD_BENCH_MTL_STATS_H_
#define MOCOGRAD_BENCH_MTL_STATS_H_

// Order statistics for end-to-end metrics. Timings are reported as medians
// with quartiles (never best-of-N: a minimum hides exactly the queueing and
// interference an end-to-end number exists to show), and a tail percentile
// is reported only as high as the sample supports.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace mocograd {
namespace bench {

/// Median and quartiles of a sample, with its size.
struct Summary {
  int64_t n = 0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

/// The `q`-quantile (q in [0, 1]) of an ascending-sorted sample, linearly
/// interpolated between closest ranks. 0 for an empty sample.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Sorts `values` in place and summarizes them.
inline Summary Summarize(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  s.median = Quantile(values, 0.50);
  s.p25 = Quantile(values, 0.25);
  s.p75 = Quantile(values, 0.75);
  return s;
}

/// The highest of the conventional tail percentiles (99.9, 99, 90, 50) that
/// has at least `min_beyond` samples above it in a sample of size `n`; 0
/// when even the median is unsupported.
inline double SupportedPercentile(int64_t n, int64_t min_beyond = 10) {
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - pct) / 100.0 >=
        static_cast<double>(min_beyond)) {
      return pct;
    }
  }
  return 0.0;
}

}  // namespace bench
}  // namespace mocograd

#endif  // MOCOGRAD_BENCH_MTL_STATS_H_
