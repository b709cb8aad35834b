// mg_report — renders a self-contained HTML report from the conflict
// observatory's JSONL output (docs/OBSERVABILITY.md "Conflict telemetry").
//
//   mg_report run.jsonl                        # single-run report
//   mg_report a.jsonl b.jsonl                  # A/B diff of two runs
//   mg_report --out report.html --fail-on-watchdog run.jsonl
//
// Reads the telemetry records ({"type":"step"|"watchdog",...}); a line
// without one of those types is a parse error. A file holding several
// training runs (step id resets to 0, or the method changes) is split and
// every run gets its own section. Diff mode compares each file's
// longest run: side-by-side summaries, overlaid loss/GCD curves, and the
// per-task final-loss gap. Exit codes: 0 ok, 1 usage/parse error,
// 2 --fail-on-watchdog tripped.
//
// The HTML is a single file with inline SVG — no external assets, opens
// anywhere, attaches to CI artifacts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/phase_profile.h"

namespace {

using mocograd::Result;
using mocograd::obs::JsonValue;
using mocograd::obs::ParseJson;
using mocograd::obs::PhaseProfile;

double kNan = std::numeric_limits<double>::quiet_NaN();

// --- Data model ------------------------------------------------------------

struct PairCosine {
  int i = 0, j = 0;
  double cos = 0.0;
};

struct StepRec {
  int64_t step = 0;
  std::vector<double> losses;
  std::vector<double> grad_norms;
  double mean_gcd = kNan;
  double max_gcd = kNan;
  int conflicting_pairs = 0;
  int num_pairs = 0;
  std::vector<PairCosine> cosines;
  int decisions = 0;
  int decisions_acted = 0;
  PhaseProfile phase;
};

struct WatchRec {
  int64_t step = 0;
  std::string kind;
  int task = -1;
  double value = kNan;
  double threshold = 0.0;
};

struct Run {
  std::string method;
  std::vector<StepRec> steps;
  std::vector<WatchRec> watchdog;
  int num_tasks() const {
    return steps.empty() ? 0 : static_cast<int>(steps[0].losses.size());
  }
};

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string HtmlEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '&') out += "&amp;";
    else if (c == '<') out += "&lt;";
    else if (c == '>') out += "&gt;";
    else out += c;
  }
  return out;
}

// --- JSONL ingestion -------------------------------------------------------

void NumberArray(const JsonValue& rec, const char* key,
                 std::vector<double>* out) {
  const JsonValue* arr = rec.Find(key);
  if (arr == nullptr || !arr->is_array()) return;
  for (const JsonValue& v : arr->items) {
    out->push_back(v.is_number() ? v.number_value : kNan);
  }
}

StepRec ParseTelemetryStep(const JsonValue& rec) {
  StepRec s;
  s.step = static_cast<int64_t>(rec.NumberOr("step", 0));
  NumberArray(rec, "losses", &s.losses);
  NumberArray(rec, "grad_norms", &s.grad_norms);
  const JsonValue* gcd = rec.Find("gcd");
  if (gcd != nullptr && gcd->is_object()) {
    s.mean_gcd = gcd->NumberOr("mean", kNan);
    s.max_gcd = gcd->NumberOr("max", kNan);
    s.conflicting_pairs = static_cast<int>(gcd->NumberOr("conflicting_pairs", 0));
    s.num_pairs = static_cast<int>(gcd->NumberOr("pairs", 0));
  }
  const JsonValue* cosines = rec.Find("cosines");
  if (cosines != nullptr && cosines->is_array()) {
    for (const JsonValue& t : cosines->items) {
      if (t.is_array() && t.items.size() == 3 && t.items[2].is_number()) {
        s.cosines.push_back({static_cast<int>(t.items[0].number_value),
                             static_cast<int>(t.items[1].number_value),
                             t.items[2].number_value});
      }
    }
  }
  const JsonValue* decisions = rec.Find("decisions");
  if (decisions != nullptr && decisions->is_array()) {
    for (const JsonValue& d : decisions->items) {
      ++s.decisions;
      const JsonValue* acted = d.Find("acted");
      if (acted != nullptr && acted->is_bool() && acted->bool_value) {
        ++s.decisions_acted;
      }
    }
  }
  const JsonValue* phase = rec.Find("phase");
  if (phase != nullptr && phase->is_object()) {
    for (const auto& [k, v] : phase->members) {
      if (v.is_number()) s.phase.Add(k, v.number_value);
    }
  }
  return s;
}

// Splits one JSONL file into runs: a step record whose id does not increase
// (or whose method changes) starts a new run. Watchdog records attach to
// the current run.
bool ParseFile(const std::string& path, std::vector<Run>* runs) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "mg_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    ++line_no;
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<JsonValue> parsed = ParseJson(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "mg_report: %s:%d: %s\n", path.c_str(), line_no,
                   parsed.status().ToString().c_str());
      return false;
    }
    const JsonValue& rec = parsed.value();
    const std::string type = rec.StringOr("type", "");
    if (type != "step" && type != "watchdog") {
      std::fprintf(stderr, "mg_report: %s:%d: not a step/watchdog record\n",
                   path.c_str(), line_no);
      return false;
    }
    if (type == "watchdog") {
      if (runs->empty()) runs->push_back({});
      runs->back().watchdog.push_back(
          {static_cast<int64_t>(rec.NumberOr("step", 0)),
           rec.StringOr("kind", "?"),
           static_cast<int>(rec.NumberOr("task", -1)),
           rec.NumberOr("value", kNan), rec.NumberOr("threshold", 0.0)});
      continue;
    }
    const std::string method = rec.StringOr("method", "?");
    StepRec s = ParseTelemetryStep(rec);
    const bool new_run = runs->empty() || runs->back().method != method ||
                         (!runs->back().steps.empty() &&
                          s.step <= runs->back().steps.back().step);
    if (new_run) {
      runs->push_back({});
      runs->back().method = method;
    }
    runs->back().steps.push_back(std::move(s));
  }
  return true;
}

// --- SVG helpers -----------------------------------------------------------

const char* kPalette[] = {"#3366cc", "#dc3912", "#109618", "#ff9900",
                          "#990099", "#0099c6", "#dd4477", "#66aa00"};

struct Series {
  std::string name;
  std::string color;
  bool dashed = false;
  std::vector<double> x;
  std::vector<double> y;
};

// A line chart with axes, min/max labels and a legend. Skips NaNs.
std::string LineChart(const std::string& title,
                      const std::vector<Series>& series, int w = 560,
                      int h = 240) {
  const int ml = 56, mr = 12, mt = 24, mb = 28;
  double xmin = kNan, xmax = kNan, ymin = kNan, ymax = kNan;
  for (const Series& s : series) {
    for (size_t i = 0; i < s.x.size(); ++i) {
      if (!std::isfinite(s.y[i])) continue;
      if (!std::isfinite(xmin) || s.x[i] < xmin) xmin = s.x[i];
      if (!std::isfinite(xmax) || s.x[i] > xmax) xmax = s.x[i];
      if (!std::isfinite(ymin) || s.y[i] < ymin) ymin = s.y[i];
      if (!std::isfinite(ymax) || s.y[i] > ymax) ymax = s.y[i];
    }
  }
  std::string out = "<svg width=\"" + std::to_string(w) + "\" height=\"" +
                    std::to_string(h) + "\" xmlns=\"http://www.w3.org/2000/svg\">";
  out += "<text x=\"8\" y=\"15\" class=\"t\">" + HtmlEscape(title) + "</text>";
  if (!std::isfinite(xmin) || !std::isfinite(ymin)) {
    out += "<text x=\"60\" y=\"100\">no data</text></svg>";
    return out;
  }
  if (xmax == xmin) xmax = xmin + 1;
  if (ymax == ymin) ymax = ymin + (ymin == 0 ? 1 : std::fabs(ymin) * 0.1);
  const double px = (w - ml - mr) / (xmax - xmin);
  const double py = (h - mt - mb) / (ymax - ymin);
  auto X = [&](double x) { return ml + (x - xmin) * px; };
  auto Y = [&](double y) { return h - mb - (y - ymin) * py; };
  // Axes + labels.
  out += "<line class=\"ax\" x1=\"" + Fmt("%.1f", ml) + "\" y1=\"" +
         Fmt("%.1f", mt) + "\" x2=\"" + Fmt("%.1f", ml) + "\" y2=\"" +
         Fmt("%.1f", h - mb) + "\"/>";
  out += "<line class=\"ax\" x1=\"" + Fmt("%.1f", ml) + "\" y1=\"" +
         Fmt("%.1f", h - mb) + "\" x2=\"" + Fmt("%.1f", w - mr) +
         "\" y2=\"" + Fmt("%.1f", h - mb) + "\"/>";
  out += "<text class=\"lb\" x=\"4\" y=\"" + Fmt("%.1f", mt + 10) + "\">" +
         Fmt("%.3g", ymax) + "</text>";
  out += "<text class=\"lb\" x=\"4\" y=\"" + Fmt("%.1f", h - mb) + "\">" +
         Fmt("%.3g", ymin) + "</text>";
  out += "<text class=\"lb\" x=\"" + Fmt("%.1f", ml) + "\" y=\"" +
         Fmt("%.1f", h - 8) + "\">" + Fmt("%.0f", xmin) + "</text>";
  out += "<text class=\"lb\" x=\"" + Fmt("%.1f", w - mr - 30) + "\" y=\"" +
         Fmt("%.1f", h - 8) + "\">" + Fmt("%.0f", xmax) + "</text>";
  // Polylines.
  for (const Series& s : series) {
    std::string pts;
    for (size_t i = 0; i < s.x.size(); ++i) {
      if (!std::isfinite(s.y[i])) continue;
      pts += Fmt("%.1f", X(s.x[i])) + "," + Fmt("%.1f", Y(s.y[i])) + " ";
    }
    out += "<polyline fill=\"none\" stroke=\"" + s.color +
           "\" stroke-width=\"1.5\"" +
           (s.dashed ? " stroke-dasharray=\"5,3\"" : "") + " points=\"" +
           pts + "\"/>";
  }
  // Legend.
  double lx = ml + 8;
  for (const Series& s : series) {
    out += "<line x1=\"" + Fmt("%.1f", lx) + "\" y1=\"" + Fmt("%.1f", mt - 6) +
           "\" x2=\"" + Fmt("%.1f", lx + 16) + "\" y2=\"" +
           Fmt("%.1f", mt - 6) + "\" stroke=\"" + s.color +
           "\" stroke-width=\"2\"" +
           (s.dashed ? " stroke-dasharray=\"5,3\"" : "") + "/>";
    out += "<text class=\"lb\" x=\"" + Fmt("%.1f", lx + 20) + "\" y=\"" +
           Fmt("%.1f", mt - 2) + "\">" + HtmlEscape(s.name) + "</text>";
    lx += 26 + 7.0 * s.name.size();
  }
  out += "</svg>";
  return out;
}

// Blue (aligned, GCD 0) → white (orthogonal, GCD 1) → red (conflict, GCD 2).
std::string GcdColor(double gcd) {
  const double t = std::min(2.0, std::max(0.0, gcd)) / 2.0;
  int r, g, b;
  if (t < 0.5) {
    const double u = t / 0.5;
    r = static_cast<int>(51 + u * (255 - 51));
    g = static_cast<int>(102 + u * (255 - 102));
    b = 255;
  } else {
    const double u = (t - 0.5) / 0.5;
    r = 255;
    g = static_cast<int>(255 - u * 200);
    b = static_cast<int>(255 - u * 200);
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", r, g, b);
  return buf;
}

// Pairwise-GCD heat-map over time: one row per (i, j) pair, one column per
// sampled step (downsampled to at most `max_cols` columns).
std::string GcdHeatmap(const Run& run, int max_cols = 140) {
  std::vector<std::pair<int, int>> pairs;
  for (const StepRec& s : run.steps) {
    for (const PairCosine& c : s.cosines) {
      const std::pair<int, int> key = {c.i, c.j};
      if (std::find(pairs.begin(), pairs.end(), key) == pairs.end()) {
        pairs.push_back(key);
      }
    }
  }
  if (pairs.empty()) return "";
  std::sort(pairs.begin(), pairs.end());
  const int cols =
      std::min(max_cols, static_cast<int>(run.steps.size()));
  const int cell_w = std::max(3, 560 / std::max(1, cols));
  const int cell_h = 16;
  const int ml = 64, mt = 24;
  const int w = ml + cols * cell_w + 12;
  const int h = mt + static_cast<int>(pairs.size()) * cell_h + 24;
  std::string out = "<svg width=\"" + std::to_string(w) + "\" height=\"" +
                    std::to_string(h) +
                    "\" xmlns=\"http://www.w3.org/2000/svg\">";
  out += "<text x=\"8\" y=\"15\" class=\"t\">pairwise GCD over time "
         "(blue aligned &#183; white orthogonal &#183; red conflict)</text>";
  for (size_t p = 0; p < pairs.size(); ++p) {
    out += "<text class=\"lb\" x=\"4\" y=\"" +
           std::to_string(mt + static_cast<int>(p) * cell_h + 12) + "\">(" +
           std::to_string(pairs[p].first) + "," +
           std::to_string(pairs[p].second) + ")</text>";
  }
  for (int c = 0; c < cols; ++c) {
    const size_t idx = run.steps.size() * c / cols;
    const StepRec& s = run.steps[idx];
    for (const PairCosine& pc : s.cosines) {
      const auto it = std::find(pairs.begin(), pairs.end(),
                                std::make_pair(pc.i, pc.j));
      const int row = static_cast<int>(it - pairs.begin());
      out += "<rect x=\"" + std::to_string(ml + c * cell_w) + "\" y=\"" +
             std::to_string(mt + row * cell_h) + "\" width=\"" +
             std::to_string(cell_w) + "\" height=\"" +
             std::to_string(cell_h - 1) + "\" fill=\"" +
             GcdColor(1.0 - pc.cos) + "\"/>";
    }
  }
  out += "<text class=\"lb\" x=\"" + std::to_string(ml) + "\" y=\"" +
         std::to_string(h - 6) + "\">step " +
         std::to_string(run.steps.front().step) + "</text>";
  out += "<text class=\"lb\" x=\"" + std::to_string(w - 70) + "\" y=\"" +
         std::to_string(h - 6) + "\">step " +
         std::to_string(run.steps.back().step) + "</text>";
  out += "</svg>";
  return out;
}

// Mean per-phase seconds as horizontal bars.
std::string PhaseBars(const Run& run) {
  PhaseProfile mean;
  for (const StepRec& s : run.steps) mean.Merge(s.phase);
  mean.ScaleAll(1.0 / run.steps.size());
  const double total = mean.Total();
  if (total <= 0.0) return "";
  std::string out = "<table class=\"ph\"><tr><th>phase</th>"
                    "<th>mean s/step</th><th></th></tr>";
  for (const auto& [name, secs] : mean.entries()) {
    const int px = static_cast<int>(320.0 * secs / total + 0.5);
    out += "<tr><td>" + HtmlEscape(name) + "</td><td>" +
           Fmt("%.3g", secs) + "</td><td><div class=\"bar\" style=\"width:" +
           std::to_string(px) + "px\"></div></td></tr>";
  }
  out += "</table>";
  return out;
}

std::string WatchdogTable(const Run& run) {
  if (run.watchdog.empty()) {
    return "<p class=\"okmsg\">no watchdog events</p>";
  }
  std::string out =
      "<table class=\"wd\"><tr><th>step</th><th>kind</th><th>task</th>"
      "<th>value</th><th>threshold</th></tr>";
  for (const WatchRec& w : run.watchdog) {
    out += "<tr><td>" + std::to_string(w.step) + "</td><td>" +
           HtmlEscape(w.kind) + "</td><td>" + std::to_string(w.task) +
           "</td><td>" +
           (std::isfinite(w.value) ? Fmt("%.4g", w.value) : "non-finite") +
           "</td><td>" + Fmt("%.4g", w.threshold) + "</td></tr>";
  }
  out += "</table>";
  return out;
}

// --- Report sections -------------------------------------------------------

std::vector<Series> LossSeries(const Run& run, const std::string& suffix,
                               bool dashed) {
  std::vector<Series> out;
  for (int t = 0; t < run.num_tasks(); ++t) {
    Series s;
    s.name = "task " + std::to_string(t) + suffix;
    s.color = kPalette[t % 8];
    s.dashed = dashed;
    for (const StepRec& r : run.steps) {
      if (t < static_cast<int>(r.losses.size())) {
        s.x.push_back(static_cast<double>(r.step));
        s.y.push_back(r.losses[t]);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string SummaryTable(const std::vector<const Run*>& runs) {
  std::string out =
      "<table class=\"sm\"><tr><th>run</th><th>steps</th><th>tasks</th>"
      "<th>final losses</th><th>mean GCD</th><th>conflict rate</th>"
      "<th>acted/decisions</th><th>watchdog</th></tr>";
  for (const Run* r : runs) {
    double gcd_sum = 0.0;
    int gcd_n = 0, conf = 0, pairs = 0, dec = 0, acted = 0;
    for (const StepRec& s : r->steps) {
      if (std::isfinite(s.mean_gcd)) {
        gcd_sum += s.mean_gcd;
        ++gcd_n;
      }
      conf += s.conflicting_pairs;
      pairs += s.num_pairs;
      dec += s.decisions;
      acted += s.decisions_acted;
    }
    std::string finals;
    if (!r->steps.empty()) {
      for (double l : r->steps.back().losses) {
        finals += (finals.empty() ? "" : ", ") + Fmt("%.4g", l);
      }
    }
    out += "<tr><td>" + HtmlEscape(r->method) + "</td><td>" +
           std::to_string(r->steps.size()) + "</td><td>" +
           std::to_string(r->num_tasks()) + "</td><td>" + finals +
           "</td><td>" +
           (gcd_n > 0 ? Fmt("%.4f", gcd_sum / gcd_n) : "-") + "</td><td>" +
           (pairs > 0 ? Fmt("%.3f", static_cast<double>(conf) / pairs) : "-") +
           "</td><td>" + std::to_string(acted) + "/" + std::to_string(dec) +
           "</td><td>" + std::to_string(r->watchdog.size()) +
           "</td></tr>";
  }
  out += "</table>";
  return out;
}

std::string RunSection(const Run& run, const std::string& heading) {
  std::string out = "<h2>" + HtmlEscape(heading) + "</h2>";
  out += SummaryTable({&run});
  out += LineChart("training loss", LossSeries(run, "", false));
  Series mean_gcd{"mean GCD", "#3366cc", false, {}, {}};
  Series max_gcd{"max GCD", "#dc3912", false, {}, {}};
  Series conf_rate{"conflict rate", "#109618", false, {}, {}};
  for (const StepRec& s : run.steps) {
    const double x = static_cast<double>(s.step);
    mean_gcd.x.push_back(x);
    mean_gcd.y.push_back(s.mean_gcd);
    max_gcd.x.push_back(x);
    max_gcd.y.push_back(s.max_gcd);
    conf_rate.x.push_back(x);
    conf_rate.y.push_back(
        s.num_pairs > 0
            ? static_cast<double>(s.conflicting_pairs) / s.num_pairs
            : kNan);
  }
  out += LineChart("gradient conflict (GCD = 1 - cos)",
                   {mean_gcd, max_gcd, conf_rate});
  out += GcdHeatmap(run);
  if (run.num_tasks() > 0 && !run.steps.empty() &&
      !run.steps.front().grad_norms.empty()) {
    std::vector<Series> norms;
    for (int t = 0; t < run.num_tasks(); ++t) {
      Series s{"||g_" + std::to_string(t) + "||", kPalette[t % 8], false,
               {}, {}};
      for (const StepRec& r : run.steps) {
        if (t < static_cast<int>(r.grad_norms.size())) {
          s.x.push_back(static_cast<double>(r.step));
          s.y.push_back(r.grad_norms[t]);
        }
      }
      norms.push_back(std::move(s));
    }
    out += LineChart("per-task gradient norm", norms);
  }
  out += PhaseBars(run);
  out += "<h3>watchdog</h3>" + WatchdogTable(run);
  return out;
}

const Run* LongestRun(const std::vector<Run>& runs) {
  const Run* best = nullptr;
  for (const Run& r : runs) {
    if (best == nullptr || r.steps.size() > best->steps.size()) best = &r;
  }
  return best;
}

std::string DiffSection(const Run& a, const Run& b) {
  std::string out = "<h2>run diff: " + HtmlEscape(a.method) + " vs " +
                    HtmlEscape(b.method) + "</h2>";
  out += SummaryTable({&a, &b});
  std::vector<Series> losses = LossSeries(a, " [A]", false);
  std::vector<Series> lb = LossSeries(b, " [B]", true);
  losses.insert(losses.end(), lb.begin(), lb.end());
  out += LineChart("training loss (A solid, B dashed)", losses, 760, 280);
  Series ga{"mean GCD [A]", "#3366cc", false, {}, {}};
  Series gb{"mean GCD [B]", "#dc3912", true, {}, {}};
  for (const StepRec& s : a.steps) {
    ga.x.push_back(static_cast<double>(s.step));
    ga.y.push_back(s.mean_gcd);
  }
  for (const StepRec& s : b.steps) {
    gb.x.push_back(static_cast<double>(s.step));
    gb.y.push_back(s.mean_gcd);
  }
  out += LineChart("mean GCD", {ga, gb}, 760, 240);
  // Final-loss gap per task.
  const int k = std::min(a.num_tasks(), b.num_tasks());
  if (k > 0 && !a.steps.empty() && !b.steps.empty()) {
    out += "<table class=\"sm\"><tr><th>task</th><th>final loss A</th>"
           "<th>final loss B</th><th>B - A</th></tr>";
    for (int t = 0; t < k; ++t) {
      const double la = a.steps.back().losses[t];
      const double lbv = b.steps.back().losses[t];
      out += "<tr><td>" + std::to_string(t) + "</td><td>" +
             Fmt("%.5g", la) + "</td><td>" + Fmt("%.5g", lbv) + "</td><td>" +
             Fmt("%+.5g", lbv - la) + "</td></tr>";
    }
    out += "</table>";
  }
  return out;
}

const char* kCss =
    "body{font:14px sans-serif;margin:24px;color:#222}"
    "h1{font-size:20px}h2{font-size:16px;margin-top:28px;"
    "border-bottom:1px solid #ccc}h3{font-size:14px}"
    "table{border-collapse:collapse;margin:8px 0}"
    "td,th{border:1px solid #ccc;padding:3px 8px;text-align:left;"
    "font-size:13px}th{background:#f2f2f2}"
    ".bar{background:#3366cc;height:10px}"
    ".okmsg{color:#109618}"
    "svg{margin:8px 12px 8px 0}"
    "svg .t{font:13px sans-serif;font-weight:bold}"
    "svg .lb{font:11px sans-serif;fill:#555}"
    "svg .ax{stroke:#999;stroke-width:1}";

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "mg_report.html";
  bool fail_on_watchdog = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fail-on-watchdog") == 0) {
      fail_on_watchdog = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: mg_report [--out report.html] [--fail-on-watchdog] "
          "run_a.jsonl [run_b.jsonl]\n"
          "Renders a self-contained HTML report from telemetry JSONL\n"
          "(MOCOGRAD_TELEMETRY); two inputs produce an A/B run diff.\n");
      return 0;
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty() || inputs.size() > 2) {
    std::fprintf(stderr, "mg_report: expected 1 or 2 input files "
                         "(see --help)\n");
    return 1;
  }

  std::vector<std::vector<Run>> files(inputs.size());
  size_t watchdog_total = 0;
  for (size_t f = 0; f < inputs.size(); ++f) {
    if (!ParseFile(inputs[f], &files[f])) return 1;
    if (files[f].empty()) {
      std::fprintf(stderr, "mg_report: %s holds no records\n",
                   inputs[f].c_str());
      return 1;
    }
    for (const Run& r : files[f]) watchdog_total += r.watchdog.size();
  }

  std::string html = "<!doctype html><html><head><meta charset=\"utf-8\">"
                     "<title>mg_report</title><style>";
  html += kCss;
  html += "</style></head><body><h1>mg_report</h1>";
  if (inputs.size() == 1) {
    html += "<p>source: <code>" + HtmlEscape(inputs[0]) + "</code></p>";
    int idx = 0;
    for (const Run& r : files[0]) {
      html += RunSection(r, "run " + std::to_string(idx++) + " — " +
                                r.method);
    }
  } else {
    html += "<p>A: <code>" + HtmlEscape(inputs[0]) + "</code> &#8212; B: "
            "<code>" + HtmlEscape(inputs[1]) + "</code></p>";
    const Run* a = LongestRun(files[0]);
    const Run* b = LongestRun(files[1]);
    html += DiffSection(*a, *b);
    html += RunSection(*a, "A — " + a->method);
    html += RunSection(*b, "B — " + b->method);
  }
  html += "</body></html>\n";

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "mg_report: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(html.data(), 1, html.size(), out);
  std::fclose(out);
  std::fprintf(stderr, "mg_report: wrote %s (%zu runs%s)\n", out_path.c_str(),
               files.size() == 1 ? files[0].size()
                                 : files[0].size() + files[1].size(),
               watchdog_total > 0
                   ? (", " + std::to_string(watchdog_total) +
                      " watchdog events").c_str()
                   : "");
  if (fail_on_watchdog && watchdog_total > 0) {
    std::fprintf(stderr,
                 "mg_report: --fail-on-watchdog: %zu watchdog events\n",
                 watchdog_total);
    return 2;
  }
  return 0;
}
