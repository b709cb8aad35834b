#ifndef MOCOGRAD_OBS_METRICS_H_
#define MOCOGRAD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mocograd {
namespace obs {

namespace internal {
/// Hot-path kill switch: kernels guard their counter updates behind one
/// relaxed load of this flag, so metrics cost nothing when nobody reads
/// them. Off by default; flipped on by opening an obs::TelemetrySink or by
/// SetMetricsEnabled(true).
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// Monotonic counter (relaxed atomic adds; merged values only — no
/// cross-metric ordering is implied).
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Exponential-bucket histogram for non-negative samples (durations,
/// sizes). Buckets double from kFirstBound upward; Percentile() linearly
/// interpolates inside the bucket containing the requested rank and clamps
/// to the observed min/max, so exact answers are only guaranteed at the
/// bucket resolution (factor-of-2).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr double kFirstBound = 1e-9;

  void Record(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;
  double max() const;
  /// p in [0, 1]; returns 0 when empty.
  double Percentile(double p) const;
  void Reset();

  /// Upper bound of bucket `i` (the last bucket is unbounded).
  static double BucketBound(int i);

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};      // double, CAS-accumulated
  std::atomic<uint64_t> min_bits_{0x7FF0000000000000ull};   // +inf
  std::atomic<uint64_t> max_bits_{0xFFF0000000000000ull};   // -inf
};

/// One counter's value in a registry snapshot.
struct MetricSample {
  std::string name;
  double value = 0.0;
};

/// One histogram's summary in a registry snapshot (latency tracking of hot
/// kernels: gemm / parallel_for / per-task backward, all in seconds).
struct HistogramSample {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Process-wide name → metric registry. Get*() interns the metric on first
/// use (callers cache the returned pointer in a function-local static, so
/// the registry mutex is off the hot path); pointers stay valid for the
/// process lifetime. Re-requesting a name with a different kind aborts.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Counters, sorted by name — what the telemetry sink diffs between
  /// records.
  std::vector<MetricSample> SnapshotCounters();

  /// Histograms, sorted by name, each summarized as count/sum/p50/p99 —
  /// what the telemetry sink reports per kernel.
  std::vector<HistogramSample> SnapshotHistograms();

  /// Zeroes every registered metric (registration is kept).
  void ResetAll();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl();
};

/// Adds `n` to the named counter iff metrics are enabled. `name` must be a
/// literal; the counter pointer is resolved once per call site.
#define MG_METRIC_COUNT(name, n)                                         \
  do {                                                                   \
    if (::mocograd::obs::MetricsEnabled()) {                             \
      static ::mocograd::obs::Counter* mg_metric_counter =               \
          ::mocograd::obs::MetricsRegistry::Global().GetCounter(name);   \
      mg_metric_counter->Add(n);                                         \
    }                                                                    \
  } while (0)

/// RAII duration sampler: records the scope's wall-clock seconds into a
/// histogram on destruction; a null histogram makes both ends no-ops.
/// MG_METRIC_TIME_SCOPE below is the intended API.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    hist_->Record(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_{};
};

#define MG_METRIC_CONCAT_INNER(a, b) a##b
#define MG_METRIC_CONCAT(a, b) MG_METRIC_CONCAT_INNER(a, b)

/// Feeds the enclosing scope's duration (seconds) into the named histogram
/// iff metrics are enabled; one relaxed atomic load otherwise. `name` must
/// be a literal; the histogram pointer is resolved once per call site.
#define MG_METRIC_TIME_SCOPE(name)                                         \
  ::mocograd::obs::ScopedTimer MG_METRIC_CONCAT(mg_metric_timer_,          \
                                                __LINE__)(                 \
      ::mocograd::obs::MetricsEnabled()                                    \
          ? []() -> ::mocograd::obs::Histogram* {                          \
              static ::mocograd::obs::Histogram* mg_hist =                 \
                  ::mocograd::obs::MetricsRegistry::Global().GetHistogram( \
                      name);                                               \
              return mg_hist;                                              \
            }()                                                            \
          : nullptr)

}  // namespace obs
}  // namespace mocograd

#endif  // MOCOGRAD_OBS_METRICS_H_
