// bench_mtl: end-to-end benchmark of the mocograd trainer and serving stack.
//
//   bench_mtl --workload NAME --seed N [--seconds S] [--trace [0|1]]
//             [--out FILE] [--bench-json FILE]
//   bench_mtl --smoke [--bench-json FILE]
//   bench_mtl --compare A.jsonl B.jsonl [--bench-json FILE]
//   bench_mtl --list
//
// A run lasts --seconds, which defaults to BENCHMARK.json's run_seconds
// (the benchmark driver passes that value explicitly). It is kRounds
// rounds. Each round builds the workload's dataset, model, serving
// snapshot and references from its own seed (set-up), trains the model for
// the rest of the round's first half (longer only if the workload's fixed
// loss steps need it) and serves it under open-loop load for a third and
// closed-loop load for a sixth of the round. Each end-to-end metric is the
// median over rounds: on a shared virtual machine a vCPU's speed shifts by
// 10-50% over seconds, so one long round varies more from run to run than
// the median of several short ones. The run prints
// `workload metric value unit` lines, diagnostics as
// `# workload name value` lines, and finally one JSON line:
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"p50_us": {"value": 274.1, "unit": "us"}, ...}}
// With --trace 0 the metrics are the end-to-end ones; --trace 1 makes a
// separate traced run that reports the per-layer ones instead. --out
// appends {"workload", "seed", "seconds", "trace", "result"} to FILE as one
// line (and a traced run's spans to FILE.spans.tsv); --compare reads two
// such files and prints each metric's median delta against its
// BENCHMARK.json bound.
//
// Every setting is fixed by the workload. Library static initializers read
// some MOCOGRAD_* variables before main() (MOCOGRAD_TRACE starts tracing),
// so a process that finds any restarts itself without them.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/simd.h"
#include "base/thread_pool.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "phases.h"

extern char** environ;

namespace mocograd {
namespace bench {
namespace {

constexpr int kRounds = 8;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // 0: BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
  bool list = false;
  std::string out;
  std::string bench_json = "BENCHMARK.json";
  std::vector<std::string> compare;
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_mtl --workload NAME --seed N [--seconds S] "
               "[--trace [0|1]] [--out FILE] [--bench-json FILE]\n"
               "       bench_mtl --smoke [--bench-json FILE]\n"
               "       bench_mtl --compare A.jsonl B.jsonl "
               "[--bench-json FILE]\n"
               "       bench_mtl --list\n");
}

// Accepts `--name value` and `--name=value`.
bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool has_value = false;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    const auto take = [&]() {
      if (!has_value && i + 1 < argc) {
        value = argv[++i];
        has_value = true;
      }
      return has_value;
    };
    char* end = nullptr;
    if (flag == "--workload" && take()) {
      o->workload = value;
    } else if (flag == "--seed" && take()) {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return false;
    } else if (flag == "--seconds" && take()) {
      o->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o->seconds > 0.0) ||
          o->seconds > 120.0) {
        return false;
      }
    } else if (flag == "--trace") {
      const std::string next = i + 1 < argc ? argv[i + 1] : "";
      if (!has_value && (next == "0" || next == "1")) take();
      if (has_value && value != "0" && value != "1") return false;
      o->trace = !has_value || value == "1";
    } else if (flag == "--out" && take()) {
      o->out = value;
    } else if (flag == "--bench-json" && take()) {
      o->bench_json = value;
    } else if (flag == "--smoke" && !has_value) {
      o->smoke = true;
    } else if (flag == "--list" && !has_value) {
      o->list = true;
    } else if (flag == "--compare" && !has_value && i + 2 < argc) {
      o->compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else {
      return false;
    }
  }
  return true;
}

// Removes every MOCOGRAD_* variable; returns whether there was any.
bool ScrubEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("MOCOGRAD_", 0) == 0) {
      names.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return !names.empty();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct RunResult {
  bool correct = false;
  PhaseResult phases;
};

// Each metric's median over the rounds (every round reports the same
// metrics in the same order); operation counts add up, and the notes are
// the first round's plus every metric's per-round values.
PhaseResult MedianOverRounds(const std::vector<PhaseResult>& rounds) {
  PhaseResult p;
  p.notes = rounds.front().notes;
  for (const PhaseResult& r : rounds) {
    p.attempted += r.attempted;
    p.failed += r.failed;
    p.checks_passed = p.checks_passed && r.checks_passed;
  }
  for (size_t m = 0; m < rounds.front().metrics.size(); ++m) {
    std::vector<double> values;
    std::string per_round;
    for (const PhaseResult& r : rounds) {
      values.push_back(r.metrics[m].value);
      if (!per_round.empty()) per_round += ' ';
      per_round += std::to_string(r.metrics[m].value);
    }
    const Metric& first = rounds.front().metrics[m];
    p.Add(first.name, Summarize(values).median, first.unit);
    p.Note("rounds." + first.name, per_round);
  }
  return p;
}

RunResult RunOnce(const Workload& w, uint64_t seed, double seconds,
                  bool trace, const std::string& spans_path) {
  RunResult r;
  PhaseResult& p = r.phases;
  // Set-up runs single-threaded; each phase then sizes the pool itself.
  ThreadPool::SetGlobalNumThreads(1);
  if (trace) {
    const Seeds seeds(seed, 0);
    std::unique_ptr<Setup> s = BuildSetup(w, seeds);
    TraceTraining(w, s.get(), seeds, 0.45 * seconds, spans_path, &p);
    RunServing(w, *s, seeds, 0.3 * seconds, 0.15 * seconds, true, &p);
  } else {
    const double round_s = seconds / kRounds;
    std::vector<PhaseResult> rounds(kRounds);
    for (int i = 0; i < kRounds; ++i) {
      const Seeds seeds(seed, i);
      Stopwatch sw;
      std::unique_ptr<Setup> s = BuildSetup(w, seeds);
      const double setup_s = sw.ElapsedSeconds();
      // Set-up and training share the first half of the round.
      RunTraining(w, s.get(), seeds, 0.5 * round_s - setup_s,
                  /*check_pool_invariance=*/i == 0, &rounds[i]);
      RunServing(w, *s, seeds, round_s / 3, round_s / 6, false, &rounds[i]);
      rounds[i].Add("setup_s", setup_s, "s");
    }
    p = MedianOverRounds(rounds);
    p.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  p.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  p.Note("isa_tier", simd::ActiveBackendName());
  r.correct = p.checks_passed && p.failed == 0 && p.attempted > 0;
  for (const Metric& m : p.metrics) {
    if (!std::isfinite(m.value)) {
      p.Note("non_finite_metric", m.name);
      r.correct = false;
    }
  }
  return r;
}

std::string ResultJson(const RunResult& r) {
  std::string j = "{";
  obs::AppendJsonKey(&j, "correct");
  j += r.correct ? "true" : "false";
  j += ", ";
  obs::AppendJsonKey(&j, "attempted");
  obs::AppendJsonNumber(&j, static_cast<double>(r.phases.attempted));
  j += ", ";
  obs::AppendJsonKey(&j, "failed");
  obs::AppendJsonNumber(&j, static_cast<double>(r.phases.failed));
  j += ", ";
  obs::AppendJsonKey(&j, "metrics");
  j += "{";
  for (size_t i = 0; i < r.phases.metrics.size(); ++i) {
    const Metric& m = r.phases.metrics[i];
    if (i > 0) j += ", ";
    obs::AppendJsonKey(&j, m.name);
    j += "{";
    obs::AppendJsonKey(&j, "value");
    obs::AppendJsonNumber(&j, std::isfinite(m.value) ? m.value : 0.0);
    j += ", ";
    obs::AppendJsonKey(&j, "unit");
    obs::AppendJsonString(&j, m.unit);
    j += "}";
  }
  j += "}}";
  return j;
}

void PrintLines(const std::string& workload, const RunResult& r) {
  for (const auto& [name, value] : r.phases.notes) {
    std::printf("# %s %s %s\n", workload.c_str(), name.c_str(), value.c_str());
  }
  for (const Metric& m : r.phases.metrics) {
    std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("%s %s %lld count\n%s %s %lld count\n", workload.c_str(),
              "ops_attempted", static_cast<long long>(r.phases.attempted),
              workload.c_str(), "ops_failed",
              static_cast<long long>(r.phases.failed));
}

// --- BENCHMARK.json ---------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string better;
  double bound = -1.0;  // < 0: per-layer, no bound
  bool end_to_end = false;
};

struct BenchSpec {
  double run_seconds = 0.0;
  std::vector<std::string> workloads;
  std::vector<MetricSpec> metrics;  // end-to-end first, then per-layer
};

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream f(path);
  if (!f) return false;
  text->assign(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
  return true;
}

bool LoadSpec(const std::string& path, BenchSpec* spec) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "bench_mtl: cannot read %s\n", path.c_str());
    return false;
  }
  Result<obs::JsonValue> doc = obs::ParseJson(text);
  if (!doc.ok()) {
    std::fprintf(stderr, "bench_mtl: %s: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return false;
  }
  const obs::JsonValue& root = doc.value();
  spec->run_seconds = root.NumberOr("run_seconds", 0.0);
  if (const obs::JsonValue* ws = root.Find("workloads")) {
    for (const obs::JsonValue& w : ws->items) {
      spec->workloads.push_back(w.StringOr("name", ""));
    }
  }
  for (const char* section : {"end_to_end", "per_layer"}) {
    const obs::JsonValue* list = root.Find(section);
    if (list == nullptr) continue;
    for (const obs::JsonValue& m : list->items) {
      spec->metrics.push_back({m.StringOr("name", ""),
                               m.StringOr("better", "lower"),
                               m.NumberOr("bound", -1.0),
                               std::string(section) == "end_to_end"});
    }
  }
  return true;
}

// --- --compare --------------------------------------------------------------

// workload -> metric -> values over runs
using RunValues =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

// Reads one --out file; `seconds` collects the run lengths it holds.
bool LoadRuns(const std::string& path, RunValues* runs,
              std::set<double>* seconds) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_mtl: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    Result<obs::JsonValue> rec = obs::ParseJson(line);
    const obs::JsonValue* result =
        rec.ok() ? rec.value().Find("result") : nullptr;
    const obs::JsonValue* metrics =
        result != nullptr ? result->Find("metrics") : nullptr;
    const obs::JsonValue* secs =
        rec.ok() ? rec.value().Find("seconds") : nullptr;
    if (metrics == nullptr || secs == nullptr || !secs->is_number()) {
      std::fprintf(stderr, "bench_mtl: %s:%d: not a run record\n",
                   path.c_str(), lineno);
      return false;
    }
    seconds->insert(secs->number_value);
    auto& per_metric = (*runs)[rec.value().StringOr("workload", "?")];
    for (const auto& [name, m] : metrics->members) {
      per_metric[name].push_back(m.NumberOr("value", NAN));
    }
  }
  return true;
}

// setup_s is 10-40 ms on the smaller workloads, where the host's own
// drift can exceed a relative bound; a set-up change counts as a
// regression only when it is also worse by more than this many seconds.
constexpr double kSetupFloorS = 0.05;

int Compare(const Options& o) {
  BenchSpec spec;
  RunValues a, b;
  std::set<double> seconds;
  if (!LoadSpec(o.bench_json, &spec) ||
      !LoadRuns(o.compare[0], &a, &seconds) ||
      !LoadRuns(o.compare[1], &b, &seconds)) {
    return 2;
  }
  if (seconds.size() != 1) {
    std::fprintf(stderr,
                 "bench_mtl: the runs differ in --seconds; compare only "
                 "runs of one length\n");
    return 2;
  }
  int regressions = 0;
  std::printf("%-11s %-30s %4s %14s %4s %14s %9s %7s  %s\n", "workload",
              "metric", "n_a", "median_a", "n_b", "median_b", "delta",
              "bound", "verdict");
  for (const auto& [workload, a_metrics] : a) {
    if (b.count(workload) == 0) continue;
    for (const MetricSpec& m : spec.metrics) {
      auto ia = a_metrics.find(m.name);
      auto ib = b.at(workload).find(m.name);
      if (ia == a_metrics.end() || ib == b.at(workload).end()) continue;
      std::vector<double> va = ia->second, vb = ib->second;
      const double ma = Summarize(va).median;
      const double mb = Summarize(vb).median;
      const double delta = (mb - ma) / std::fabs(ma);
      const double worse = m.better == "lower" ? delta : -delta;
      std::string verdict = "-";
      char bound[16] = "-";
      if (m.end_to_end) {
        const double allowed =
            m.name == "setup_s"
                ? std::max(m.bound, kSetupFloorS / std::fabs(ma))
                : m.bound;
        std::snprintf(bound, sizeof(bound), "%.1f%%", allowed * 100.0);
        verdict = worse > allowed    ? "REGRESSED"
                  : worse < -allowed ? "improved"
                                     : "ok";
        if (worse > allowed) ++regressions;
      }
      std::printf("%-11s %-30s %4zu %14.6g %4zu %14.6g %+8.2f%% %7s  %s\n",
                  workload.c_str(), m.name.c_str(), va.size(), ma, vb.size(),
                  mb, delta * 100.0, bound, verdict.c_str());
    }
  }
  std::printf("%d end-to-end regression(s) beyond bound\n", regressions);
  return regressions > 0 ? 1 : 0;
}

// --- --smoke ----------------------------------------------------------------

// Checks one run: correct, its JSON line parses with exactly the result
// keys, and its metrics are exactly `expected`.
bool CheckRun(const std::string& label, const RunResult& r,
              const std::set<std::string>& expected) {
  bool ok = true;
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "smoke %s: %s\n", label.c_str(), why.c_str());
    ok = false;
  };
  if (!r.correct) fail("run not correct");
  Result<obs::JsonValue> doc = obs::ParseJson(ResultJson(r));
  if (!doc.ok()) {
    fail("result is not JSON");
    return false;
  }
  std::set<std::string> keys, names;
  for (const auto& [k, v] : doc.value().members) keys.insert(k);
  if (keys != std::set<std::string>{"correct", "attempted", "failed",
                                    "metrics"}) {
    fail("result keys differ from correct/attempted/failed/metrics");
  }
  const obs::JsonValue* metrics = doc.value().Find("metrics");
  if (metrics == nullptr) {
    fail("result has no metrics");
    return false;
  }
  for (const auto& [k, v] : metrics->members) {
    names.insert(k);
    if (!v.Find("value") || !v.Find("value")->is_number() ||
        !v.Find("unit") || !v.Find("unit")->is_string()) {
      fail("metric " + k + " lacks a numeric value or a unit");
    }
  }
  for (const std::string& n : expected) {
    if (names.count(n) == 0) fail("missing metric " + n);
  }
  for (const std::string& n : names) {
    if (expected.count(n) == 0) fail("metric " + n + " not in BENCHMARK.json");
  }
  return ok;
}

int Smoke(const Options& o) {
  BenchSpec spec;
  if (!LoadSpec(o.bench_json, &spec)) return 2;
  bool ok = true;
  if (obs::TracingEnabled()) {
    std::fprintf(stderr, "smoke: library tracing is on\n");
    ok = false;
  }
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  if (names != spec.workloads) {
    std::fprintf(stderr, "smoke: BENCHMARK.json workloads differ\n");
    ok = false;
  }
  std::set<std::string> e2e, layer;
  for (const MetricSpec& m : spec.metrics) {
    (m.end_to_end ? e2e : layer).insert(m.name);
  }
  for (Workload w : Workloads()) {
    w.warmup_steps = 2;
    w.loss_steps = 4;
    const RunResult plain = RunOnce(w, 1, 0.5, false, "");
    bool w_ok = CheckRun(w.name, plain, e2e);
    const RunResult traced = RunOnce(w, 1, 0.5, true, "");
    w_ok &= CheckRun(w.name + " --trace", traced, layer);
    for (const auto& [name, value] : traced.phases.notes) {
      if (name == "trace.replay_bitwise" && value != "true") {
        std::fprintf(stderr, "smoke %s: replay not bitwise\n", w.name.c_str());
        w_ok = false;
      }
    }
    for (const Metric& m : traced.phases.metrics) {
      if (m.name == "trainer.unattributed_frac" && m.value > 0.05) {
        std::fprintf(stderr, "smoke %s: unattributed_frac %.3f > 0.05\n",
                     w.name.c_str(), m.value);
        w_ok = false;
      }
    }
    std::printf("smoke %s: %s\n", w.name.c_str(), w_ok ? "ok" : "FAILED");
    ok &= w_ok;
  }
  std::printf("bench_mtl smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (ScrubEnvironment()) {
    execv("/proc/self/exe", argv);
    std::perror("bench_mtl: restart without MOCOGRAD_* variables");
    return 2;
  }
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    Usage();
    return 2;
  }
  if (o.list) {
    for (const Workload& w : Workloads()) {
      std::printf("%s\t%s\n", w.name.c_str(), w.why.c_str());
    }
    return 0;
  }
  if (!o.compare.empty()) return Compare(o);
  if (o.smoke) return Smoke(o);

  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "bench_mtl: unknown workload '%s' (see --list)\n",
                 o.workload.c_str());
    Usage();
    return 2;
  }
  if (o.seconds == 0.0) {
    BenchSpec spec;
    if (!LoadSpec(o.bench_json, &spec)) return 2;
    o.seconds = spec.run_seconds;
    if (!(o.seconds > 0.0)) {
      std::fprintf(stderr, "bench_mtl: %s has no run_seconds\n",
                   o.bench_json.c_str());
      return 2;
    }
  }
  const RunResult r = RunOnce(*w, o.seed, o.seconds, o.trace,
                              o.trace && !o.out.empty()
                                  ? o.out + ".spans.tsv"
                                  : std::string());
  const std::string json = ResultJson(r);
  PrintLines(w->name, r);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!o.out.empty()) {
    std::string rec = "{";
    obs::AppendJsonKey(&rec, "workload");
    obs::AppendJsonString(&rec, w->name);
    rec += ", ";
    obs::AppendJsonKey(&rec, "seed");
    obs::AppendJsonNumber(&rec, static_cast<double>(o.seed));
    rec += ", ";
    obs::AppendJsonKey(&rec, "seconds");
    obs::AppendJsonNumber(&rec, o.seconds);
    rec += ", ";
    obs::AppendJsonKey(&rec, "trace");
    rec += o.trace ? "true" : "false";
    rec += ", ";
    obs::AppendJsonKey(&rec, "result");
    rec += json + "}\n";
    std::FILE* f = std::fopen(o.out.c_str(), "a");
    if (f == nullptr || std::fputs(rec.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "bench_mtl: cannot append to %s\n",
                   o.out.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace mocograd

int main(int argc, char** argv) { return mocograd::bench::Main(argc, argv); }
