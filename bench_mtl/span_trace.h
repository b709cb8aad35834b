#ifndef MOCOGRAD_BENCH_MTL_SPAN_TRACE_H_
#define MOCOGRAD_BENCH_MTL_SPAN_TRACE_H_

// Spans recorded by the benchmark around its own calls into each layer's
// public functions (nothing inside src/ is instrumented). Spans live in a
// buffer sized before the traced run starts; recording is one relaxed
// atomic increment plus two clock reads, safe from pool worker threads.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace mocograd {
namespace bench {

/// One timed interval: `name` indexes the recorder's name table, `parent`
/// is the id of the span that caused it (-1 for a root).
struct Span {
  int name = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(std::vector<std::string> names, size_t capacity)
      : names_(std::move(names)), spans_(capacity),
        origin_(std::chrono::steady_clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Opens a span and returns its id, or -1 when the buffer is full (its
  /// Close is then a no-op). Callers size the buffer so that it never is.
  int Open(int name, int parent) {
    const size_t id = next_.fetch_add(1, std::memory_order_relaxed);
    if (id >= spans_.size()) return -1;
    Span& s = spans_[id];
    s.name = name;
    s.parent = parent;
    s.start_ns = NowNs();
    return static_cast<int>(id);
  }

  void Close(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  /// Spans recorded so far, in id order. Call only after every span is
  /// closed (no recording in flight).
  std::vector<Span> Recorded() const {
    return std::vector<Span>(spans_.begin(), spans_.begin() + size());
  }

  size_t size() const { return std::min(next_.load(), spans_.size()); }
  size_t capacity() const { return spans_.size(); }

  /// Writes every span as one tab-separated line:
  /// `id name start_ns end_ns parent`.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<Span> spans = Recorded();
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\n", i,
                   names_[spans[i].name].c_str(),
                   static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns), spans[i].parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::chrono::steady_clock::time_point origin_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, int name, int parent)
      : rec_(rec), id_(rec != nullptr ? rec->Open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Per-name totals over a span list.
struct SpanTotals {
  std::vector<double> self_s;      // duration minus child-covered time
  std::vector<double> duration_s;  // summed durations
  std::vector<int64_t> count;
};

/// A span's self time is its duration minus the part of its interval that
/// its children cover. Children of one parent may run concurrently on pool
/// workers, so their intervals are merged before being subtracted.
inline SpanTotals TotalsByName(const std::vector<Span>& spans,
                               size_t num_names) {
  SpanTotals t;
  t.self_s.assign(num_names, 0.0);
  t.duration_s.assign(num_names, 0.0);
  t.count.assign(num_names, 0);

  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[p].push_back(static_cast<int>(i));
    }
  }
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (int c : children[i]) {
      iv.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                      std::min(spans[c].end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const int64_t dur = s.end_ns - s.start_ns;
    t.self_s[s.name] += static_cast<double>(dur - covered) * 1e-9;
    t.duration_s[s.name] += static_cast<double>(dur) * 1e-9;
    t.count[s.name] += 1;
  }
  return t;
}

}  // namespace bench
}  // namespace mocograd

#endif  // MOCOGRAD_BENCH_MTL_SPAN_TRACE_H_
