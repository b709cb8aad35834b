// Validates that stdin (or each file argument) is well-formed JSON. With
// --telemetry, each non-empty line is parsed and checked against the
// telemetry schema emitted by obs::TelemetrySink (docs/OBSERVABILITY.md
// "Conflict telemetry"): typed records, required keys, finite floats,
// integer counter deltas, ordered kernel percentiles, and per-run monotone
// step ids.
// With --serve, each file is checked against the serving-benchmark schema
// written by bench/bench_serve.cc (docs/SERVING.md): non-empty results,
// positive finite QPS, ordered finite latency percentiles.
// Exit 0 iff everything validates; the first error on each file is
// reported. Used by run_tests.sh and the mg_report CI smoke to check the
// Chrome-trace / telemetry files the observability layer emits.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using mocograd::Result;
using mocograd::Status;
using mocograd::obs::JsonValue;

std::string ReadAll(std::FILE* f) {
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  return out;
}

// --- Telemetry schema ------------------------------------------------------

// Appends "key" context to an error message.
Status Bad(const std::string& what) {
  return Status::InvalidArgument("telemetry schema: " + what);
}

bool IsInt(double v) { return std::isfinite(v) && v == std::floor(v); }

// Requires `key` to be an array of finite numbers (no nulls — the writer
// serializes non-finite values as null, so a null here means a NaN/Inf
// leaked into the training run). `min_len` guards non-empty arrays.
Status CheckFiniteArray(const JsonValue& obj, const std::string& key,
                        size_t min_len) {
  const JsonValue* arr = obj.Find(key);
  if (arr == nullptr) return Status::Ok();
  if (!arr->is_array()) return Bad("\"" + key + "\" must be an array");
  if (arr->items.size() < min_len) {
    return Bad("\"" + key + "\" must have at least " +
               std::to_string(min_len) + " entries");
  }
  for (const JsonValue& v : arr->items) {
    if (!v.is_number() || !std::isfinite(v.number_value)) {
      return Bad("\"" + key + "\" contains a non-finite entry");
    }
  }
  return Status::Ok();
}

Status CheckStepRecord(const JsonValue& rec) {
  const JsonValue* step = rec.Find("step");
  if (step == nullptr || !step->is_number() || !IsInt(step->number_value) ||
      step->number_value < 0) {
    return Bad("\"step\" must be a non-negative integer");
  }
  const JsonValue* method = rec.Find("method");
  if (method == nullptr || !method->is_string() ||
      method->string_value.empty()) {
    return Bad("\"method\" must be a non-empty string");
  }
  if (rec.Find("losses") == nullptr) return Bad("\"losses\" is required");
  Status s = CheckFiniteArray(rec, "losses", 1);
  if (!s.ok()) return s;
  const size_t k = rec.Find("losses")->items.size();
  for (const char* key : {"task_weights", "grad_norms", "momentum_norms"}) {
    s = CheckFiniteArray(rec, key, 0);
    if (!s.ok()) return s;
    const JsonValue* arr = rec.Find(key);
    if (arr != nullptr && arr->items.size() != k) {
      return Bad(std::string("\"") + key + "\" length must match \"losses\"");
    }
  }

  const JsonValue* gcd = rec.Find("gcd");
  if (gcd == nullptr || !gcd->is_object()) {
    return Bad("\"gcd\" must be an object");
  }
  for (const char* key : {"mean", "max", "conflicting_pairs", "pairs"}) {
    const JsonValue* v = gcd->Find(key);
    if (v == nullptr || !v->is_number() || !std::isfinite(v->number_value)) {
      return Bad(std::string("\"gcd.") + key + "\" must be a finite number");
    }
  }
  const double conflicting = gcd->NumberOr("conflicting_pairs", 0.0);
  const double pairs = gcd->NumberOr("pairs", 0.0);
  if (!IsInt(conflicting) || !IsInt(pairs) || conflicting < 0 || pairs < 0 ||
      conflicting > pairs) {
    return Bad("\"gcd\" pair counts must satisfy 0 <= conflicting <= pairs");
  }

  const JsonValue* cosines = rec.Find("cosines");
  if (cosines != nullptr) {
    if (!cosines->is_array()) return Bad("\"cosines\" must be an array");
    for (const JsonValue& triple : cosines->items) {
      if (!triple.is_array() || triple.items.size() != 3 ||
          !triple.items[0].is_number() || !triple.items[1].is_number() ||
          !triple.items[2].is_number()) {
        return Bad("\"cosines\" entries must be [i, j, cos] number triples");
      }
      const double i = triple.items[0].number_value;
      const double j = triple.items[1].number_value;
      const double cos = triple.items[2].number_value;
      if (!IsInt(i) || !IsInt(j) || i < 0 || j <= i ||
          j >= static_cast<double>(k)) {
        return Bad("\"cosines\" indices must satisfy 0 <= i < j < K");
      }
      if (!std::isfinite(cos) || cos < -1.000001 || cos > 1.000001) {
        return Bad("\"cosines\" values must be finite in [-1, 1]");
      }
    }
  }

  const JsonValue* decisions = rec.Find("decisions");
  if (decisions != nullptr) {
    if (!decisions->is_array()) return Bad("\"decisions\" must be an array");
    for (const JsonValue& d : decisions->items) {
      if (!d.is_object()) return Bad("\"decisions\" entries must be objects");
      const JsonValue* di = d.Find("i");
      const JsonValue* dj = d.Find("j");
      const JsonValue* mag = d.Find("mag");
      const JsonValue* acted = d.Find("acted");
      const JsonValue* cos = d.Find("cos");
      if (di == nullptr || !di->is_number() || !IsInt(di->number_value) ||
          dj == nullptr || !dj->is_number() || !IsInt(dj->number_value)) {
        return Bad("decision \"i\"/\"j\" must be integers");
      }
      if (mag == nullptr || !mag->is_number() ||
          !std::isfinite(mag->number_value)) {
        return Bad("decision \"mag\" must be a finite number");
      }
      if (acted == nullptr || !acted->is_bool()) {
        return Bad("decision \"acted\" must be a bool");
      }
      // cos is number-or-null: null marks "raw cosine unknown" (methods
      // that test against an already-projected gradient).
      if (cos != nullptr && !cos->is_null() && !cos->is_number()) {
        return Bad("decision \"cos\" must be a number or null");
      }
    }
  }

  const JsonValue* phase = rec.Find("phase");
  if (phase != nullptr) {
    if (!phase->is_object()) return Bad("\"phase\" must be an object");
    for (const auto& [key, v] : phase->members) {
      if (!v.is_number() || !std::isfinite(v.number_value) ||
          v.number_value < 0) {
        return Bad("\"phase." + key +
                   "\" must be a finite non-negative number of seconds");
      }
    }
  }

  // Metrics-registry keys: counter deltas since the sink's previous record,
  // and cumulative per-histogram summaries.
  const JsonValue* counters = rec.Find("counters");
  if (counters != nullptr) {
    if (!counters->is_object()) return Bad("\"counters\" must be an object");
    for (const auto& [key, v] : counters->members) {
      if (!v.is_number() || !IsInt(v.number_value)) {
        return Bad("\"counters." + key + "\" must be a finite integer");
      }
    }
  }
  const JsonValue* kernels = rec.Find("kernels");
  if (kernels != nullptr) {
    if (!kernels->is_object()) return Bad("\"kernels\" must be an object");
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    for (const auto& [key, h] : kernels->members) {
      const double count = h.NumberOr("count", kNan);
      const double p50 = h.NumberOr("p50", kNan);
      const double p99 = h.NumberOr("p99", kNan);
      if (!IsInt(count) || count < 1 || !std::isfinite(p99) ||
          !(0 <= p50 && p50 <= p99)) {
        return Bad("\"kernels." + key +
                   "\" needs an integer count >= 1 and finite 0 <= p50 <= p99");
      }
    }
  }
  return Status::Ok();
}

Status CheckWatchdogRecord(const JsonValue& rec) {
  const JsonValue* step = rec.Find("step");
  if (step == nullptr || !step->is_number() || !IsInt(step->number_value) ||
      step->number_value < 0) {
    return Bad("\"step\" must be a non-negative integer");
  }
  const JsonValue* kind = rec.Find("kind");
  if (kind == nullptr || !kind->is_string() || kind->string_value.empty()) {
    return Bad("\"kind\" must be a non-empty string");
  }
  const JsonValue* task = rec.Find("task");
  if (task == nullptr || !task->is_number() || !IsInt(task->number_value) ||
      task->number_value < -1) {
    return Bad("\"task\" must be an integer >= -1");
  }
  const JsonValue* value = rec.Find("value");
  if (value == nullptr || (!value->is_null() && !value->is_number())) {
    return Bad("\"value\" must be a number or null");
  }
  const JsonValue* threshold = rec.Find("threshold");
  if (threshold == nullptr || !threshold->is_number()) {
    return Bad("\"threshold\" must be a number");
  }
  return Status::Ok();
}

// --- Serving-benchmark schema ----------------------------------------------

Status BadServe(const std::string& what) {
  return Status::InvalidArgument("serve schema: " + what);
}

// Requires `key` to be a finite number in [lo, hi]; integral if `integral`.
Status CheckServeNumber(const JsonValue& rec, const char* key, double lo,
                        double hi, bool integral) {
  const JsonValue* v = rec.Find(key);
  if (v == nullptr || !v->is_number() || !std::isfinite(v->number_value)) {
    return BadServe(std::string("\"") + key + "\" must be a finite number");
  }
  if (v->number_value < lo || v->number_value > hi) {
    return BadServe(std::string("\"") + key + "\" out of range");
  }
  if (integral && !IsInt(v->number_value)) {
    return BadServe(std::string("\"") + key + "\" must be an integer");
  }
  return Status::Ok();
}

// Checks a BENCH_serve.json document written by bench/bench_serve.cc
// (docs/SERVING.md "The traffic harness"): the active ISA tier, a
// non-empty "results" array whose rows carry identifying strings, a
// serving precision, positive finite throughput, ordered finite latency
// percentiles, and a batcher occupancy in (0, 1], plus a non-empty
// "precision_compare" array recording the fp32-vs-bf16 throughput and
// output-error comparison (docs/SERVING.md "Reduced precision").
Status CheckServeDocument(const JsonValue& doc) {
  if (!doc.is_object()) return BadServe("document must be an object");
  const JsonValue* tier = doc.Find("isa_tier");
  if (tier == nullptr || !tier->is_string() || tier->string_value.empty()) {
    return BadServe("\"isa_tier\" must be a non-empty string");
  }
  const JsonValue* results = doc.Find("results");
  if (results == nullptr || !results->is_array()) {
    return BadServe("\"results\" must be an array");
  }
  if (results->items.empty()) {
    return BadServe("\"results\" must be non-empty");
  }
  for (const JsonValue& rec : results->items) {
    if (!rec.is_object()) return BadServe("results entries must be objects");
    for (const char* key : {"model", "dataset", "mode"}) {
      const JsonValue* v = rec.Find(key);
      if (v == nullptr || !v->is_string() || v->string_value.empty()) {
        return BadServe(std::string("\"") + key +
                        "\" must be a non-empty string");
      }
    }
    const JsonValue* precision = rec.Find("precision");
    if (precision == nullptr || !precision->is_string() ||
        (precision->string_value != "fp32" &&
         precision->string_value != "bf16")) {
      return BadServe("\"precision\" must be \"fp32\" or \"bf16\"");
    }
    constexpr double kInf = std::numeric_limits<double>::max();
    Status s = CheckServeNumber(rec, "qps", 1e-9, kInf, false);
    if (!s.ok()) return s;
    for (const char* key : {"p50_us", "p95_us", "p99_us"}) {
      s = CheckServeNumber(rec, key, 0.0, kInf, false);
      if (!s.ok()) return s;
    }
    const double p50 = rec.Find("p50_us")->number_value;
    const double p99 = rec.Find("p99_us")->number_value;
    if (p50 > p99) return BadServe("\"p50_us\" must not exceed \"p99_us\"");
    s = CheckServeNumber(rec, "batch", 1.0, kInf, true);
    if (!s.ok()) return s;
    s = CheckServeNumber(rec, "threads", 1.0, kInf, true);
    if (!s.ok()) return s;
    s = CheckServeNumber(rec, "requests", 1.0, kInf, true);
    if (!s.ok()) return s;
    s = CheckServeNumber(rec, "occupancy", 1e-9, 1.0, false);
    if (!s.ok()) return s;
  }

  const JsonValue* cmp = doc.Find("precision_compare");
  if (cmp == nullptr || !cmp->is_array()) {
    return BadServe("\"precision_compare\" must be an array");
  }
  if (cmp->items.empty()) {
    return BadServe("\"precision_compare\" must be non-empty");
  }
  for (const JsonValue& rec : cmp->items) {
    if (!rec.is_object()) {
      return BadServe("precision_compare entries must be objects");
    }
    for (const char* key : {"model", "dataset"}) {
      const JsonValue* v = rec.Find(key);
      if (v == nullptr || !v->is_string() || v->string_value.empty()) {
        return BadServe(std::string("\"") + key +
                        "\" must be a non-empty string");
      }
    }
    constexpr double kInf = std::numeric_limits<double>::max();
    for (const char* key : {"qps_fp32", "qps_bf16", "speedup_bf16"}) {
      Status s = CheckServeNumber(rec, key, 1e-9, kInf, false);
      if (!s.ok()) return s;
    }
    // The bf16 deviation is a few weight-rounding ulps through two small
    // layers: zero means the bf16 path silently served fp32 weights, and
    // anything near 1 means the storage rounding corrupted the model.
    Status s = CheckServeNumber(rec, "max_abs_error",
                                std::numeric_limits<double>::min(),
                                0.999999, false);
    if (!s.ok()) return s;
    s = CheckServeNumber(rec, "requests", 1.0, kInf, true);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status CheckServeText(const std::string& text) {
  Result<JsonValue> parsed = mocograd::obs::ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  return CheckServeDocument(parsed.value());
}

// Per-file telemetry state: step ids must be monotone within a run; a
// record with step 0 starts a new run (several TrainAndEvaluate calls may
// append to one file).
struct TelemetryState {
  double prev_step = -1.0;
};

Status CheckTelemetryLine(const std::string& line, TelemetryState* state) {
  Result<JsonValue> parsed = mocograd::obs::ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& rec = parsed.value();
  if (!rec.is_object()) return Bad("record must be an object");
  const JsonValue* type = rec.Find("type");
  if (type == nullptr || !type->is_string()) {
    return Bad("\"type\" must be a string");
  }
  if (type->string_value == "step") {
    Status s = CheckStepRecord(rec);
    if (!s.ok()) return s;
    const double step = rec.Find("step")->number_value;
    if (step == 0.0) {
      state->prev_step = 0.0;  // new run
    } else if (step <= state->prev_step) {
      return Bad("step ids must be strictly increasing within a run");
    } else {
      state->prev_step = step;
    }
    return Status::Ok();
  }
  if (type->string_value == "watchdog") return CheckWatchdogRecord(rec);
  return Bad("unknown record type: \"" + type->string_value + "\"");
}

// --- Driver ----------------------------------------------------------------

enum class Mode { kJson, kTelemetry, kServe };

bool Validate(const std::string& name, const std::string& text, Mode mode) {
  if (mode == Mode::kJson || mode == Mode::kServe) {
    Status s = mode == Mode::kServe ? CheckServeText(text)
                                    : mocograd::obs::ValidateJson(text);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), s.ToString().c_str());
      return false;
    }
    return true;
  }
  TelemetryState state;
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    ++line_no;
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Status s = CheckTelemetryLine(line, &state);
    if (!s.ok()) {
      std::fprintf(stderr, "%s:%d: %s\n", name.c_str(), line_no,
                   s.ToString().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Mode mode = Mode::kJson;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0) {
      mode = Mode::kTelemetry;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      mode = Mode::kServe;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: validate_json [--telemetry|--serve] [file...]\n"
          "Checks files (or stdin) for JSON well-formedness; --telemetry\n"
          "additionally enforces the conflict-telemetry JSONL schema;\n"
          "--serve enforces the BENCH_serve.json schema.\n");
      return 0;
    } else {
      paths.push_back(argv[i]);
    }
  }

  bool ok = true;
  if (paths.empty()) {
    ok = Validate("<stdin>", ReadAll(stdin), mode);
  } else {
    for (const char* path : paths) {
      std::FILE* f = std::fopen(path, "rb");
      if (f == nullptr) {
        std::fprintf(stderr, "%s: cannot open\n", path);
        ok = false;
        continue;
      }
      const std::string text = ReadAll(f);
      std::fclose(f);
      ok = Validate(path, text, mode) && ok;
    }
  }
  return ok ? 0 : 1;
}
