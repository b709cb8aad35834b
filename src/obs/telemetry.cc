#include "obs/telemetry.h"

#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"
#include "base/simd.h"
#include "obs/json.h"

namespace mocograd {
namespace obs {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kNormEps = 1e-12;
}  // namespace

void AggregatorTrace::Begin(const std::string& method, int num_tasks) {
  MG_CHECK_GE(num_tasks, 0);
  method_ = method;
  num_tasks_ = num_tasks;
  known_cosines_ = 0;
  pairs_.clear();
  // clear() keeps capacity, so RecordPair/MarkActed stop allocating once the
  // vector reaches its high-water mark; the reserve makes the common k-task
  // sweep (≤ k² pair decisions) allocation-free from the first step.
  pairs_.reserve(static_cast<size_t>(num_tasks) * num_tasks);
  cosines_.assign(static_cast<size_t>(num_tasks) * num_tasks, kNan);
  for (int i = 0; i < num_tasks; ++i) {
    cosines_[static_cast<size_t>(i) * num_tasks + i] = 1.0;
  }
  solver_weights_.clear();
  grad_norms_.clear();
  momentum_norms_.clear();
  stats_.clear();
  solver_iterations_ = 0;
}

// MG_COLD_PATH: pair recording is amortized — Begin reserves k² slots and
// clear() retains capacity, so aggregation-sweep callers stop hitting the
// allocator after the first step (the steady-state alloc tests pin this).
void AggregatorTrace::RecordPair(int i, int j, double cosine, double magnitude,
                                 bool acted) {
  pairs_.push_back({i, j, cosine, magnitude, acted});
}
// MG_COLD_PATH_END

// MG_COLD_PATH: same amortization argument as RecordPair — the fallback
// push_back reuses the capacity Begin reserved.
void AggregatorTrace::MarkActed(int i, int j, double magnitude) {
  // Scan from the back: the pair being upgraded was recorded this task's
  // sweep, i.e. among the most recent entries.
  for (auto it = pairs_.rbegin(); it != pairs_.rend(); ++it) {
    if (it->i == i && it->j == j) {
      it->acted = true;
      it->magnitude = magnitude;
      return;
    }
  }
  pairs_.push_back({i, j, kNan, magnitude, true});
}
// MG_COLD_PATH_END

void AggregatorTrace::SetCosine(int i, int j, double cosine) {
  MG_DCHECK(i >= 0 && i < num_tasks_ && j >= 0 && j < num_tasks_);
  if (i == j) return;
  const size_t a = static_cast<size_t>(i) * num_tasks_ + j;
  const size_t b = static_cast<size_t>(j) * num_tasks_ + i;
  if (std::isnan(cosines_[a])) ++known_cosines_;
  cosines_[a] = cosine;
  cosines_[b] = cosine;
}

void AggregatorTrace::SetCosinesFromGram(
    const std::vector<std::vector<double>>& gram) {
  const int k = static_cast<int>(gram.size());
  MG_CHECK_EQ(k, num_tasks_, "Gram size must match Begin's task count");
  for (int i = 0; i < k; ++i) {
    const double ni = std::sqrt(std::max(gram[i][i], 0.0));
    for (int j = i + 1; j < k; ++j) {
      const double nj = std::sqrt(std::max(gram[j][j], 0.0));
      const double denom = ni * nj;
      SetCosine(i, j, denom < kNormEps ? 0.0 : gram[i][j] / denom);
    }
  }
}

double AggregatorTrace::cosine(int i, int j) const {
  MG_CHECK(i >= 0 && i < num_tasks_ && j >= 0 && j < num_tasks_);
  if (i == j) return 1.0;
  return cosines_[static_cast<size_t>(i) * num_tasks_ + j];
}

void AggregatorTrace::AddStat(const std::string& name, double value) {
  stats_.emplace_back(name, value);
}

TelemetrySink::TelemetrySink(const std::string& path, int every)
    : every_(every < 1 ? 1 : every) {
  if (path == "-") {
    file_ = stdout;
  } else {
    // Append: one process often runs several training loops (baselines +
    // methods) against the same MOCOGRAD_TELEMETRY path.
    file_ = std::fopen(path.c_str(), "a");
    owns_file_ = true;
  }
  if (file_ == nullptr) {
    status_ = Status::Internal("cannot open telemetry sink: " + path);
    return;
  }
  SetMetricsEnabled(true);
  prev_counters_ = MetricsRegistry::Global().SnapshotCounters();
}

TelemetrySink::~TelemetrySink() {
  if (file_ != nullptr && owns_file_) std::fclose(file_);
}

namespace {

void AppendDoubleArray(std::string* out, const char* key,
                       const std::vector<double>& v) {
  *out += ',';
  AppendJsonKey(out, key);
  *out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ',';
    AppendJsonNumber(out, v[i]);
  }
  *out += ']';
}

void AppendFloatArray(std::string* out, const char* key,
                      const std::vector<float>& v) {
  *out += ',';
  AppendJsonKey(out, key);
  *out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ',';
    AppendJsonNumber(out, v[i]);
  }
  *out += ']';
}

// Appends "counters" (deltas against `*prev`, zero deltas omitted) and, once
// any histogram holds a sample, "kernels" (cumulative count/p50/p99 per
// histogram: a percentile of a duration distribution has no meaningful
// delta). Updates `*prev` to the current counter values.
void AppendRegistryDeltas(std::string* out, std::vector<MetricSample>* prev) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::vector<MetricSample> now = registry.SnapshotCounters();
  *out += ",\"counters\":{";
  bool first = true;
  size_t pi = 0;
  for (const MetricSample& cur : now) {
    // Both snapshots are name-sorted, so they merge linearly; a counter
    // registered since the previous record starts from 0.
    while (pi < prev->size() && (*prev)[pi].name < cur.name) ++pi;
    const double before =
        pi < prev->size() && (*prev)[pi].name == cur.name ? (*prev)[pi].value
                                                          : 0.0;
    const double delta = cur.value - before;
    if (delta == 0.0) continue;
    if (!first) *out += ',';
    first = false;
    AppendJsonKey(out, cur.name);
    AppendJsonNumber(out, delta);
  }
  *out += '}';
  *prev = std::move(now);
  bool any = false;
  for (const HistogramSample& h : registry.SnapshotHistograms()) {
    if (h.count == 0) continue;
    *out += any ? "," : ",\"kernels\":{";
    any = true;
    AppendJsonKey(out, h.name);
    *out += "{\"count\":";
    AppendJsonNumber(out, static_cast<double>(h.count));
    *out += ",\"p50\":";
    AppendJsonNumber(out, h.p50);
    *out += ",\"p99\":";
    AppendJsonNumber(out, h.p99);
    *out += '}';
  }
  if (any) *out += '}';
}

}  // namespace

void TelemetrySink::WriteRecord(const TelemetryRecord& record) {
  if (file_ == nullptr) return;
  std::string line = "{\"type\":\"step\",\"step\":";
  AppendJsonNumber(&line, static_cast<double>(record.step));
  line += ',';
  AppendJsonKey(&line, "method");
  AppendJsonString(&line, record.method);
  // Active kernel tier of the runtime ISA dispatch (docs/SIMD.md): results
  // are bit-identical across tiers, but recording the tier lets a replay
  // diff rule the kernel path in or out immediately.
  line += ',';
  AppendJsonKey(&line, "isa_tier");
  AppendJsonString(&line, simd::ActiveBackendName());
  AppendFloatArray(&line, "losses", record.losses);
  if (!record.task_weights.empty()) {
    AppendFloatArray(&line, "task_weights", record.task_weights);
  }
  if (!record.grad_norms.empty()) {
    AppendDoubleArray(&line, "grad_norms", record.grad_norms);
  }
  if (!record.momentum_norms.empty()) {
    AppendDoubleArray(&line, "momentum_norms", record.momentum_norms);
  }
  line += ",\"gcd\":{\"mean\":";
  AppendJsonNumber(&line, record.mean_gcd);
  line += ",\"max\":";
  AppendJsonNumber(&line, record.max_gcd);
  line += ",\"conflicting_pairs\":";
  AppendJsonNumber(&line, record.num_conflicting_pairs);
  line += ",\"pairs\":";
  AppendJsonNumber(&line, record.num_pairs);
  line += '}';
  // Pairwise cosines as [i, j, cos] triplets over the known i<j cells (the
  // GCD heat-map's raw material; GCD = 1 − cos).
  if (!record.cosines.empty() && record.num_tasks > 1) {
    const int k = record.num_tasks;
    line += ",\"cosines\":[";
    bool first = true;
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        const double c = record.cosines[static_cast<size_t>(i) * k + j];
        if (std::isnan(c)) continue;
        if (!first) line += ',';
        first = false;
        line += '[';
        AppendJsonNumber(&line, i);
        line += ',';
        AppendJsonNumber(&line, j);
        line += ',';
        AppendJsonNumber(&line, c);
        line += ']';
      }
    }
    line += ']';
  }
  if (record.trace != nullptr) {
    const AggregatorTrace& t = *record.trace;
    if (!t.pairs().empty()) {
      line += ",\"decisions\":[";
      bool first = true;
      for (const PairDecision& d : t.pairs()) {
        if (!first) line += ',';
        first = false;
        line += "{\"i\":";
        AppendJsonNumber(&line, d.i);
        line += ",\"j\":";
        AppendJsonNumber(&line, d.j);
        line += ",\"cos\":";
        AppendJsonNumber(&line, d.cosine);  // NaN → null (unknown)
        line += ",\"mag\":";
        AppendJsonNumber(&line, d.magnitude);
        line += ",\"acted\":";
        line += d.acted ? "true" : "false";
        line += '}';
      }
      line += ']';
    }
    if (t.solver_iterations() > 0 || !t.solver_weights().empty()) {
      line += ",\"solver\":{\"iterations\":";
      AppendJsonNumber(&line, static_cast<double>(t.solver_iterations()));
      if (!t.solver_weights().empty()) {
        AppendDoubleArray(&line, "weights", t.solver_weights());
      }
      line += '}';
    }
    if (!t.stats().empty()) {
      line += ",\"stats\":{";
      bool first = true;
      for (const auto& [name, value] : t.stats()) {
        if (!first) line += ',';
        first = false;
        AppendJsonKey(&line, name);
        AppendJsonNumber(&line, value);
      }
      line += '}';
    }
  }
  if (record.phase != nullptr && !record.phase->empty()) {
    line += ",\"phase\":{";
    bool first = true;
    for (const auto& [name, seconds] : record.phase->entries()) {
      if (!first) line += ',';
      first = false;
      AppendJsonKey(&line, name);
      AppendJsonNumber(&line, seconds);
    }
    line += '}';
  }
  MutexLock lk(&mu_);
  AppendRegistryDeltas(&line, &prev_counters_);
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), file_);
}

void TelemetrySink::WriteWatchdogEvent(const std::string& method,
                                       const WatchdogEvent& ev) {
  if (file_ == nullptr) return;
  std::string line = "{\"type\":\"watchdog\",\"step\":";
  AppendJsonNumber(&line, static_cast<double>(ev.step));
  line += ',';
  AppendJsonKey(&line, "method");
  AppendJsonString(&line, method);
  line += ',';
  AppendJsonKey(&line, "kind");
  AppendJsonString(&line, ev.kind);
  line += ",\"task\":";
  AppendJsonNumber(&line, ev.task);
  line += ",\"value\":";
  AppendJsonNumber(&line, ev.value);  // NaN loss → null
  line += ",\"threshold\":";
  AppendJsonNumber(&line, ev.threshold);
  line += "}\n";
  MutexLock lk(&mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);  // anomalies must survive a crashing run
}

}  // namespace obs
}  // namespace mocograd
