#ifndef MOCOGRAD_OBS_PHASE_PROFILE_H_
#define MOCOGRAD_OBS_PHASE_PROFILE_H_

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace mocograd {
namespace obs {

/// Named wall-clock buckets an instrumented routine fills for its caller —
/// the per-phase attribution channel between aggregators and the trainer /
/// benches ("gram", "solver", "combine", ...). Small and value-typed: a
/// handful of entries, merged by name in insertion order.
class PhaseProfile {
 public:
  void Add(const std::string& name, double seconds) {
    for (auto& e : entries_) {
      if (e.first == name) {
        e.second += seconds;
        return;
      }
    }
    entries_.emplace_back(name, seconds);
  }

  /// Accumulated seconds for `name` (0 when never recorded).
  double Get(const std::string& name) const {
    for (const auto& e : entries_) {
      if (e.first == name) return e.second;
    }
    return 0.0;
  }

  double Total() const {
    double s = 0.0;
    for (const auto& e : entries_) s += e.second;
    return s;
  }

  void Merge(const PhaseProfile& other) {
    for (const auto& e : other.entries_) Add(e.first, e.second);
  }

  void ScaleAll(double s) {
    for (auto& e : entries_) e.second *= s;
  }

  bool empty() const { return entries_.empty(); }

  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

/// RAII phase timer: opens a trace span named `name` and, when `profile` is
/// non-null, adds the elapsed wall-clock to that bucket on destruction.
/// Null-profile cost is the span's (one relaxed load when tracing is off)
/// plus one steady-clock read pair.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfile* profile, const char* name)
      : profile_(profile), name_(name), trace_(std::in_place, name),
        start_(Clock::now()) {}
  ~ScopedPhase() { Close(Clock::now()); }

  /// Closes this bucket and opens `name`'s at the same clock reading, so
  /// back-to-back phases leave no time between them unattributed.
  void Next(const char* name) {
    const Clock::time_point now = Clock::now();
    Close(now);
    name_ = name;
    trace_.emplace(name);
    start_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void Close(Clock::time_point now) {
    trace_.reset();
    if (profile_ != nullptr) {
      profile_->Add(name_, std::chrono::duration<double>(now - start_).count());
    }
  }

  PhaseProfile* profile_;
  const char* name_;
  std::optional<TraceScope> trace_;
  Clock::time_point start_;
};

}  // namespace obs
}  // namespace mocograd

#endif  // MOCOGRAD_OBS_PHASE_PROFILE_H_
