#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "base/check.h"
#include "base/mutex.h"

namespace mocograd {
namespace obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t DoubleToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// CAS-loop accumulate: std::atomic<double>::fetch_add is C++20-library
// dependent, so spell it portably.
void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t cur = bits->load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t next = DoubleToBits(BitsToDouble(cur) + delta);
    if (bits->compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicMinDouble(std::atomic<uint64_t>* bits, double v) {
  uint64_t cur = bits->load(std::memory_order_relaxed);
  while (v < BitsToDouble(cur)) {
    if (bits->compare_exchange_weak(cur, DoubleToBits(v),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicMaxDouble(std::atomic<uint64_t>* bits, double v) {
  uint64_t cur = bits->load(std::memory_order_relaxed);
  while (v > BitsToDouble(cur)) {
    if (bits->compare_exchange_weak(cur, DoubleToBits(v),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

double Histogram::BucketBound(int i) {
  return kFirstBound * std::ldexp(1.0, i);  // kFirstBound * 2^i
}

void Histogram::Record(double v) {
  if (!(v >= 0.0)) v = 0.0;  // clamp negatives and NaN to the first bucket
  int b = 0;
  while (b < kNumBuckets - 1 && v > BucketBound(b)) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_bits_, v);
  AtomicMinDouble(&min_bits_, v);
  AtomicMaxDouble(&max_bits_, v);
}

double Histogram::sum() const {
  return BitsToDouble(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::min() const {
  return count() == 0
             ? 0.0
             : BitsToDouble(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  return count() == 0
             ? 0.0
             : BitsToDouble(max_bits_.load(std::memory_order_relaxed));
}

double Histogram::Percentile(double p) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the requested percentile (1-based, nearest-rank).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p * static_cast<double>(n))));
  int64_t cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const int64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (cum + in_bucket >= rank) {
      const double lo = b == 0 ? 0.0 : BucketBound(b - 1);
      const double hi =
          b == kNumBuckets - 1 ? std::max(max(), BucketBound(b - 1)) : BucketBound(b);
      // Linear interpolation of the rank inside the bucket.
      const double frac =
          in_bucket == 0
              ? 1.0
              : static_cast<double>(rank - cum) / static_cast<double>(in_bucket);
      const double est = lo + frac * (hi - lo);
      return std::clamp(est, min(), max());
    }
    cum += in_bucket;
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  min_bits_.store(0x7FF0000000000000ull, std::memory_order_relaxed);
  max_bits_.store(0xFFF0000000000000ull, std::memory_order_relaxed);
}

struct MetricsRegistry::Impl {
  Mutex mu;
  // The maps' *structure* is guarded; the pointed-to instruments are
  // lock-free atomics updated without mu (that is the whole point of
  // handing out stable Counter*/Histogram* pointers).
  std::map<std::string, std::unique_ptr<Counter>> counters MG_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      MG_GUARDED_BY(mu);
};

MetricsRegistry::Impl& MetricsRegistry::impl() {
  static Impl* impl = new Impl;
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Impl& i = impl();
  MutexLock lk(&i.mu);
  MG_CHECK(i.histograms.count(name) == 0,
           "metric registered with a different kind: ", name);
  auto& slot = i.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& i = impl();
  MutexLock lk(&i.mu);
  MG_CHECK(i.counters.count(name) == 0,
           "metric registered with a different kind: ", name);
  auto& slot = i.histograms[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<MetricSample> MetricsRegistry::SnapshotCounters() {
  Impl& i = impl();
  MutexLock lk(&i.mu);
  std::vector<MetricSample> out;
  out.reserve(i.counters.size());
  for (const auto& [name, c] : i.counters) {
    out.push_back({name, static_cast<double>(c->value())});
  }
  return out;  // std::map iteration is already name-sorted
}

std::vector<HistogramSample> MetricsRegistry::SnapshotHistograms() {
  Impl& i = impl();
  MutexLock lk(&i.mu);
  std::vector<HistogramSample> out;
  out.reserve(i.histograms.size());
  for (const auto& [name, h] : i.histograms) {
    out.push_back({name, h->count(), h->sum(), h->Percentile(0.50),
                   h->Percentile(0.99)});
  }
  return out;  // std::map iteration is already name-sorted
}

void MetricsRegistry::ResetAll() {
  Impl& i = impl();
  MutexLock lk(&i.mu);
  for (auto& [name, c] : i.counters) c->Reset();
  for (auto& [name, h] : i.histograms) h->Reset();
}

}  // namespace obs
}  // namespace mocograd
