// Reproduces the paper's evaluation grid (Tables I-IV, Figs. 1, 2, 5, 6, 7
// and 9, plus a MoCoGrad ablation) from one table of rows, and gates it.
//
//   bench_paper [--golden <path>] [row ...]
//
// Runs the named rows, or every row when none is named; an unknown name
// exits 2 and lists the valid ones. Each row trains its cells on workload
// simulators over MOCOGRAD_BENCH_SEEDS seeds (default 3; the paper averages
// 10 runs) and prints the seed averages next to the paper's published
// values. Absolute values differ (synthetic CPU-scale workloads against the
// authors' GPU testbed); the claims under test are the shapes, see
// EXPERIMENTS.md.
//
// Two gates, either of which exits 1:
//   1. Drift. One 64-bit FNV-1a checksum per (row, seed) over the raw bytes
//      of every deterministic field of each cell's per-seed RunResult, in
//      table order: task metrics, test risks, final losses, loss curve and
//      mean GCD, never the wall times. Every checksum line is printed. With
//      --golden, a line that differs from the file, or is missing from it,
//      fails. Checksums are per seed, so a 1-seed run checks against the
//      same file. A deliberate numerics change regenerates the file with
//        bench_paper | grep '^checksum ' > bench/paper_golden.txt
//      at the default 3 seeds.
//   2. Claims. Each row's ordering assertions from EXPERIMENTS.md's summary
//      table. They gate only at the documented 3 seeds; at other seed
//      counts they are printed but not enforced.
//
// A run is cached under its full spec (workload, architecture, tasks,
// protocol, method, options, seed), so a cell that several rows share
// trains once per process: Fig. 6 is Table III's grid, and Table II's
// MovieLens cells reappear in Figs. 7 and 9 and in the ablation.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/env.h"
#include "base/table.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "data/aliexpress.h"
#include "data/movielens.h"
#include "data/office_home.h"
#include "data/qm9.h"
#include "data/scene.h"
#include "harness/experiment.h"
#include "mtl/mmoe.h"

namespace mocograd {
namespace {

using harness::RunResult;

/// The seed count EXPERIMENTS.md documents; the claims gate only here.
constexpr int kDocumentedSeeds = 3;
/// Every run records its per-task training losses at this stride, so the
/// Fig. 6 curves need no runs of their own.
constexpr int kCurveEvery = 30;

/// Number of seeds averaged per cell.
int NumSeeds() { return GetEnvInt("MOCOGRAD_BENCH_SEEDS", 3, 1, 100); }

/// Display name of a method as it appears in the paper's tables.
std::string PaperName(const std::string& method) {
  static const std::map<std::string, std::string> kNames = {
      {"ew", "EW"},           {"dwa", "DWA"},
      {"mgda", "MGDA"},       {"pcgrad", "PCGrad"},
      {"graddrop", "GradDrop"}, {"gradvac", "GradVac"},
      {"cagrad", "CAGrad"},   {"imtl", "IMTL"},
      {"rlw", "RLW"},         {"nashmtl", "Nash-MTL"},
      {"mocograd", "MoCoGrad"}};
  auto it = kNames.find(method);
  return it != kNames.end() ? it->second : method;
}

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

std::string Pct(double fraction) { return TextTable::Percent(fraction); }

// --- The row table ------------------------------------------------------

struct Protocol {
  int steps;
  int batch_size;
  float lr;
};
constexpr Protocol kAliExpress{300, 64, 2e-3f};
constexpr Protocol kRegression{250, 32, 3e-3f};
constexpr Protocol kScene{300, 8, 3e-3f};
constexpr Protocol kOfficeHome{300, 16, 2e-3f};

/// One trained configuration: an aggregator, or the single-task baseline.
struct Cell {
  std::string label;
  std::string method;  // aggregator name, or "stl"
  core::MoCoGradOptions mocograd = {};  // the only options a row varies
  std::vector<int> tasks = {};          // empty: every task of the workload
};

/// The cells trained on one workload, architecture and protocol.
struct Panel {
  std::string label;
  std::string workload;  // MakeWorkload spec
  std::string arch;      // MakeFactory name
  Protocol protocol;
  std::vector<Cell> cells;
  std::map<std::string, double> paper = {};  // published Δ_M (%) by cell
};

struct Grid;

struct Claim {
  std::string text;
  bool holds;
};

struct Row {
  std::string name;
  std::string title;
  std::vector<Panel> panels;
  /// Table columns before Δ_M: the first task_headers.size() task metrics
  /// in task order, then the mean over tasks of each task's first metric
  /// under mean_header (empty: not shown).
  std::vector<std::string> task_headers = {};
  std::string mean_header = {};
  std::string panel_header = {};
  std::string cell_header = "Method";
  /// Published Δ_M (%) over all panels' tasks pooled, by cell (Table I).
  std::map<std::string, double> pooled_paper = {};
  /// Output beyond the table, for the rows that need it.
  void (*print)(const Grid&) = nullptr;
  std::vector<Claim> (*claims)(const Grid&) = nullptr;
  /// The row's documented claims that are not asserted, and why.
  std::string not_asserted = {};
};

/// A row's seed-averaged results, [panel][cell].
struct Grid {
  const Row& row;
  std::vector<std::vector<RunResult>> results;

  size_t Index(size_t p, const std::string& label) const {
    const std::vector<Cell>& cells = row.panels[p].cells;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].label == label) return c;
    }
    MG_FATAL("row ", row.name, " has no cell ", label);
  }
  const RunResult& At(size_t p, const std::string& label) const {
    return results[p][Index(p, label)];
  }
  /// True when panel p's first cell is the all-task STL baseline, which
  /// gives its cells a Δ_M.
  bool HasStl(size_t p) const {
    const Cell& first = row.panels[p].cells[0];
    return first.method == "stl" && first.tasks.empty();
  }
  double DeltaM(size_t p, size_t c) const {
    return harness::ComputeDeltaM(results[p][c].task_metrics,
                                  results[p][0].task_metrics);
  }
  double DeltaM(size_t p, const std::string& label) const {
    return DeltaM(p, Index(p, label));
  }
  /// The cell with the highest Δ_M in panel p, other than STL and `skip`.
  size_t Best(size_t p, size_t skip = 0) const {
    size_t best = 0;
    for (size_t c = 1; c < results[p].size(); ++c) {
      if (c != skip && (best == 0 || DeltaM(p, c) > DeltaM(p, best))) best = c;
    }
    return best;
  }
  /// Δ_M of cell c over every panel's tasks pooled.
  double PooledDeltaM(size_t c) const {
    std::vector<harness::TaskMetrics> mtl, stl;
    for (const std::vector<RunResult>& panel : results) {
      mtl.insert(mtl.end(), panel[c].task_metrics.begin(),
                 panel[c].task_metrics.end());
      stl.insert(stl.end(), panel[0].task_metrics.begin(),
                 panel[0].task_metrics.end());
    }
    return harness::ComputeDeltaM(mtl, stl);
  }
};

double MeanFirstMetric(const RunResult& r) {
  double s = 0.0;
  for (const harness::TaskMetrics& tm : r.task_metrics) s += tm[0].value;
  return s / r.task_metrics.size();
}

double TaskA(const RunResult& r) { return r.task_metrics[0][0].value; }

// --- Odd rows' output and the claims ----------------------------------------

/// Fig. 2's point for relatedness panel p: TCI (Definition 2) of task A on
/// its RMSE risk; positive means joint training hurt it.
double Fig2Tci(const Grid& g, size_t p) {
  return core::Tci(TaskA(g.At(p, "EW")), TaskA(g.At(p, "STL")));
}

/// Pearson correlation of (mean GCD, TCI) across Fig. 2's panels.
double Fig2Pearson(const Grid& g) {
  std::vector<double> gcds, tcis;
  for (size_t p = 0; p < g.results.size(); ++p) {
    gcds.push_back(g.At(p, "EW").mean_gcd);
    tcis.push_back(Fig2Tci(g, p));
  }
  const size_t n = gcds.size();
  double mg = 0, mt = 0;
  for (size_t i = 0; i < n; ++i) {
    mg += gcds[i];
    mt += tcis[i];
  }
  mg /= n;
  mt /= n;
  double cov = 0, vg = 0, vt = 0;
  for (size_t i = 0; i < n; ++i) {
    cov += (gcds[i] - mg) * (tcis[i] - mt);
    vg += (gcds[i] - mg) * (gcds[i] - mg);
    vt += (tcis[i] - mt) * (tcis[i] - mt);
  }
  return cov / std::sqrt(vg * vt + 1e-12);
}

void PrintFig2(const Grid& g) {
  TextTable table;
  table.SetHeader({"relatedness", "mean GCD", "TCI(A) vs STL", "MTL RMSE(A)",
                   "STL RMSE(A)"});
  for (size_t p = 0; p < g.results.size(); ++p) {
    const RunResult& mtl = g.At(p, "EW");
    table.AddRow({g.row.panels[p].label, TextTable::Num(mtl.mean_gcd, 4),
                  TextTable::Num(Fig2Tci(g, p), 4), TextTable::Num(TaskA(mtl)),
                  TextTable::Num(TaskA(g.At(p, "STL")))});
  }
  std::printf("%s\nPearson correlation(GCD, TCI) = %.3f\n",
              table.ToString().c_str(), Fig2Pearson(g));
}

void PrintFig6(const Grid& g) {
  const std::vector<Cell>& cells = g.row.panels[0].cells;
  const std::vector<RunResult>& runs = g.results[0];
  const char* views[] = {"Segmentation", "Depth", "Surface normals",
                         "Average of 3 tasks"};
  for (int view = 0; view < 4; ++view) {
    TextTable table;
    std::vector<std::string> header = {"step"};
    for (const Cell& cell : cells) header.push_back(cell.label);
    table.SetHeader(header);
    for (size_t p = 0; p < runs[0].loss_curve.size(); ++p) {
      std::vector<std::string> line = {std::to_string(p * kCurveEvery)};
      for (const RunResult& r : runs) {
        const std::vector<float>& l = r.loss_curve[p];
        const double v = view < 3 ? l[view] : (l[0] + l[1] + l[2]) / 3.0;
        line.push_back(TextTable::Num(v, 4));
      }
      table.AddRow(line);
    }
    std::printf("Fig. 6(%c): %s training loss\n%s\n", 'a' + view,
                views[view], table.ToString().c_str());
  }
  std::printf("Final average training loss by method:\n");
  for (size_t c = 0; c < cells.size(); ++c) {
    const std::vector<float>& last = runs[c].loss_curve.back();
    std::printf("  %-9s %.4f\n", cells[c].label.c_str(),
                (last[0] + last[1] + last[2]) / 3.0);
  }
}

void PrintFig9(const Grid& g) {
  for (size_t p = 0; p < g.results.size(); ++p) {
    std::printf("Best lambda by DeltaM on %s: %s (paper: 0.12)\n",
                g.row.panels[p].label.c_str(),
                g.row.panels[p].cells[g.Best(p)].label.c_str());
  }
}

/// "<a_name> <a> > <b_name> <b>" over Δ_M values; holds when a > b.
Claim Above(const std::string& a_name, double a, const std::string& b_name,
            double b) {
  return {a_name + " " + Pct(a) + " > " + b_name + " " + Pct(b), a > b};
}

/// The label and Δ_M of panel p's best cell other than STL and `skip`.
std::pair<std::string, double> BestOther(const Grid& g, size_t p,
                                         size_t skip) {
  const size_t c = g.Best(p, skip);
  return {g.row.panels[p].cells[c].label, g.DeltaM(p, c)};
}

std::vector<Claim> Fig1Claims(const Grid& g) {
  std::vector<Claim> out;
  for (size_t p = 0; p < g.results.size(); ++p) {
    const double a = TaskA(g.At(p, "A")), ab = TaskA(g.At(p, "A+B")),
                 abc = TaskA(g.At(p, "A+B+C"));
    out.push_back({Format("%s: RMSE(A) rises A -> A+B -> A+B+C "
                          "(%.4f, %.4f, %.4f)",
                          g.row.panels[p].label.c_str(), a, ab, abc),
                   a < ab && ab < abc});
  }
  return out;
}

std::vector<Claim> Fig2Claims(const Grid& g) {
  const double r = Fig2Pearson(g);
  return {{Format("Pearson(GCD, TCI) = %.3f >= 0.9", r), r >= 0.9}};
}

std::vector<Claim> Table1Claims(const Grid& g) {
  const double moco = g.PooledDeltaM(g.Index(0, "MoCoGrad"));
  std::vector<Claim> out;
  for (const char* m : {"PCGrad", "GradVac", "GradDrop", "RLW", "DWA"}) {
    out.push_back(Above("pooled MoCoGrad", moco, m,
                        g.PooledDeltaM(g.Index(0, m))));
  }
  return out;
}

std::vector<Claim> Table2Claims(const Grid& g) {
  std::vector<Claim> out;
  double lowest = g.DeltaM(0, 1);
  for (size_t c = 2; c < g.results[0].size(); ++c) {
    lowest = std::min(lowest, g.DeltaM(0, c));
  }
  out.push_back(Above("QM9 lowest", lowest, "STL", 0.0));
  for (size_t p : {0, 1}) {
    const size_t moco = g.Index(p, "MoCoGrad");
    const auto [other, delta] = BestOther(g, p, moco);
    out.push_back(Above(g.row.panels[p].label + " MoCoGrad",
                        g.DeltaM(p, moco), "best other " + other, delta));
  }
  return out;
}

std::vector<Claim> Fig5Claims(const Grid& g) {
  const size_t moco = g.Index(0, "MoCoGrad");
  const auto [other, delta] = BestOther(g, 0, moco);
  return {Above("MoCoGrad", g.DeltaM(0, moco), "STL", 0.0),
          Above("STL", 0.0, "best other " + other, delta)};
}

std::vector<Claim> Fig7Claims(const Grid& g) {
  std::vector<Claim> out;
  for (size_t p = 0; p < g.results.size(); ++p) {
    out.push_back(Above(g.row.panels[p].label + " MoCoGrad",
                        g.DeltaM(p, "MoCoGrad"), "STL", 0.0));
  }
  return out;
}

std::vector<Claim> Fig9Claims(const Grid& g) {
  const size_t ml = 1, best = g.Best(ml), last = g.results[ml].size() - 1;
  const std::vector<Cell>& cells = g.row.panels[ml].cells;
  return {{Format("MovieLens: the best lambda (%s, DeltaM %s) is interior, "
                  "neither %s nor %s",
                  cells[best].label.c_str(), Pct(g.DeltaM(ml, best)).c_str(),
                  cells[1].label.c_str(), cells[last].label.c_str()),
           best != 1 && best != last}};
}

std::vector<Claim> AblationClaims(const Grid& g) {
  const char* other = "beta1 = 0.00";
  for (const char* b : {"beta1 = 0.50", "beta1 = 0.98"}) {
    if (g.DeltaM(0, b) > g.DeltaM(0, other)) other = b;
  }
  return {Above("MoCoGrad", g.DeltaM(0, "MoCoGrad"),
                "raw-gradient calibration",
                g.DeltaM(0, "raw-gradient calibration")),
          Above("beta1 = 0.90", g.DeltaM(0, "beta1 = 0.90"), other,
                g.DeltaM(0, other))};
}

// --- Row definitions --------------------------------------------------------

const char kMovieLens[] = "movielens:train=1200,test=500";

std::vector<Cell> PaperMethods(bool with_stl) {
  std::vector<Cell> cells;
  if (with_stl) cells.push_back({"STL", "stl"});
  for (const std::string& m : core::PaperMethodNames()) {
    cells.push_back({PaperName(m), m});
  }
  return cells;
}

/// Published Δ_M (%) in core::PaperMethodNames() order, by display name.
std::map<std::string, double> ByPaperMethod(const std::vector<double>& v) {
  std::map<std::string, double> out;
  for (size_t i = 0; i < v.size(); ++i) {
    out[PaperName(core::PaperMethodNames()[i])] = v[i];
  }
  return out;
}

std::vector<Cell> LambdaGrid(std::initializer_list<float> lambdas) {
  std::vector<Cell> cells = {{"STL", "stl"}};
  for (float lambda : lambdas) {
    cells.push_back({TextTable::Num(lambda, 2), "mocograd", {.lambda = lambda}});
  }
  return cells;
}

std::vector<Row> Rows() {
  std::vector<Panel> table1, fig2, fig7;
  for (const char* country : {"ES", "FR", "NL", "US"}) {
    table1.push_back({country, std::string("aliexpress:country=") + country,
                      "embedding_hps", kAliExpress, PaperMethods(true)});
  }
  for (const char* rel : {"0.90", "0.75", "0.60", "0.45", "0.30", "0.15"}) {
    fig2.push_back({rel, std::string("movielens:genres=3,relatedness=") + rel,
                    "hps", kRegression,
                    {{"STL", "stl", {}, {0}}, {"EW", "ew"}}});
  }
  const std::map<std::string, double> fig7_paper = {
      {"hps", 9.93}, {"cross_stitch", 11.0}, {"mtan", 11.5},
      {"mmoe", 10.8}, {"cgc", 11.2}};
  for (const std::string& arch : harness::AllArchitectureNames()) {
    fig7.push_back({arch, kMovieLens, arch, kRegression,
                    {{"STL", "stl"}, {"MoCoGrad", "mocograd"}},
                    {{"MoCoGrad", fig7_paper.at(arch)}}});
  }
  const std::vector<Cell> fig1_cells = {{"A", "ew", {}, {0}},
                                        {"A+B", "ew", {}, {0, 1}},
                                        {"A+B+C", "ew", {}, {0, 1, 2}}};
  std::vector<Cell> ablation = {
      {"STL", "stl"},
      {"EW", "ew"},
      {"MoCoGrad", "mocograd"},
      {"raw-gradient calibration", "mocograd", {.use_raw_gradient = true}},
      {"accumulate all conflicts", "mocograd",
       {.accumulate_all_conflicts = true}}};
  for (float beta1 : {0.0f, 0.5f, 0.9f, 0.98f}) {
    ablation.push_back({"beta1 = " + TextTable::Num(beta1, 2), "mocograd",
                        {.beta1 = beta1}});
  }
  for (const std::string& m : core::ExtensionMethodNames()) {
    ablation.push_back({PaperName(m), m});
  }

  return {
      {.name = "table1",
       .title = "Table I: AliExpress CTR/CTCVR AUC, 2 tasks x 4 countries",
       .panels = table1,
       .task_headers = {"CTR", "CTCVR"},
       .panel_header = "Country",
       .pooled_paper = ByPaperMethod({-0.54, -0.18, -0.47, -0.58, -0.71,
                                      -0.35, -0.57, +0.02, -1.11, +0.48}),
       .claims = Table1Claims,
       .not_asserted = "the paper's collapse of Nash-MTL, IMTL and CAGrad "
                       "(they stay competitive here; EXPERIMENTS.md "
                       "deviation 2)"},
      {.name = "table2",
       .title = "Table II: QM9 (11 tasks, avg MAE) and MovieLens (9 tasks, "
                "avg RMSE)",
       .panels = {{"QM9", "qm9", "hps", kRegression, PaperMethods(true),
                   ByPaperMethod({20.49, 21.41, 20.58, 24.02, 24.56, 21.36,
                                  19.12, 22.62, 27.85, 32.30})},
                  {"MovieLens", kMovieLens, "hps", kRegression,
                   PaperMethods(true),
                   ByPaperMethod({1.57, 1.56, 1.36, 1.38, 1.76, 1.34, 1.89,
                                  0.75, -0.50, 2.93})}},
       .mean_header = "Avg MAE / RMSE",
       .panel_header = "Workload",
       .claims = Table2Claims},
      {.name = "table3",
       .title = "Table III: NYUv2 segmentation / depth / surface normals",
       .panels = {{"NYUv2", "nyuv2", "scene_conv", kScene, PaperMethods(true),
                   ByPaperMethod({7.68, 6.23, 8.28, 8.30, 8.21, 7.44, 6.97,
                                  8.00, 8.04, 9.65})}},
       .task_headers = {"mIoU", "PixAcc", "AbsErr", "RelErr", "NrmMean",
                        "NrmMed", "<11.25", "<22.5", "<30"},
       .not_asserted = "every method measures below STL on the scene "
                       "substrate (EXPERIMENTS.md deviation 1)"},
      {.name = "table4",
       .title = "Table IV: CityScapes segmentation / depth",
       .panels = {{"CityScapes", "cityscapes", "scene_conv", kScene,
                   PaperMethods(true),
                   ByPaperMethod({6.43, 4.08, 1.47, 1.43, 5.91, 5.74, 4.34,
                                  -0.37, 7.59, 9.93})}},
       .task_headers = {"mIoU", "PixAcc", "AbsErr", "RelErr"},
       .not_asserted = "every method measures below STL on the scene "
                       "substrate (EXPERIMENTS.md deviation 1)"},
      {.name = "fig1",
       .title = "Fig. 1: task-A RMSE under joint training (MovieLens, 3 "
                "genres at relatedness 0.35; lower is better)",
       .panels = {{"HPS", "movielens:genres=3,relatedness=0.35", "hps",
                   kRegression, fig1_cells},
                  {"MMoE", "movielens:genres=3,relatedness=0.35", "mmoe_4x32",
                   kRegression, fig1_cells}},
       .task_headers = {"RMSE(A)"},
       .panel_header = "Architecture",
       .cell_header = "Tasks trained",
       .claims = Fig1Claims},
      {.name = "fig2",
       .title = "Fig. 2: TCI vs GCD across a MovieLens relatedness sweep",
       .panels = fig2,
       .print = PrintFig2,
       .claims = Fig2Claims},
      {.name = "fig5",
       .title = "Fig. 5: Office-Home per-domain accuracy (4 x 65-way, "
                "multi-input)",
       .panels = {{"Office-Home", "office_home", "hps", kOfficeHome,
                   PaperMethods(true)}},
       .task_headers = {"Art", "Clipart", "Product", "RealWorld"},
       .mean_header = "Avg ACC",
       .claims = Fig5Claims},
      {.name = "fig6",
       .title = "Fig. 6: NYUv2 training-loss curves",
       .panels = {{"NYUv2", "nyuv2", "scene_conv", kScene,
                   PaperMethods(false)}},
       .print = PrintFig6,
       .not_asserted = "the ordering of final training losses, which varies "
                       "with the scene substrate"},
      {.name = "fig7",
       .title = "Fig. 7: MoCoGrad under five MTL architectures (MovieLens; "
                "the paper's bars are CityScapes, approximate)",
       .panels = fig7,
       .panel_header = "Architecture",
       .claims = Fig7Claims},
      {.name = "fig9",
       .title = "Fig. 9: calibration strength lambda on Office-Home, and a "
                "MovieLens companion sweep",
       .panels = {{"Office-Home", "office_home", "hps", kOfficeHome,
                   LambdaGrid({0.03f, 0.06f, 0.09f, 0.12f, 0.15f, 0.25f, 0.5f,
                               0.9f})},
                  {"MovieLens", kMovieLens, "hps", kRegression,
                   LambdaGrid({0.03f, 0.08f, 0.12f, 0.2f, 0.3f, 0.5f, 0.7f,
                               0.9f})}},
       .mean_header = "Avg ACC / RMSE",
       .panel_header = "Workload",
       .cell_header = "lambda",
       .print = PrintFig9,
       .claims = Fig9Claims,
       .not_asserted = "an interior optimum on Office-Home, whose curve is "
                       "flat and peaks at the grid's end"},
      {.name = "ablation",
       .title = "Ablation: MoCoGrad design choices (MovieLens)",
       .panels = {{"MovieLens", kMovieLens, "hps", kRegression, ablation}},
       .cell_header = "Variant",
       .claims = AblationClaims},
  };
}

// --- Running ----------------------------------------------------------------

/// A workload simulator and the input width its MLP factories need (0 for
/// the scene simulators, whose conv factory takes images).
struct Workload {
  std::unique_ptr<data::MtlDataset> data;
  int64_t input_dim = 0;
};

template <typename Sim, typename Config>
Workload Simulate(const Config& config) {
  Workload w;
  auto sim = std::make_unique<Sim>(config);
  if constexpr (requires { sim->input_dim(); }) w.input_dim = sim->input_dim();
  w.data = std::move(sim);
  return w;
}

/// Builds "<sim>" or "<sim>:<field>=<value>,...". Only the fields the rows
/// vary can be set; every other config field keeps its simulator default.
Workload MakeWorkload(const std::string& spec) {
  std::stringstream in(spec);
  std::string sim, kv;
  std::getline(in, sim, ':');
  std::map<std::string, std::string> fields;
  while (std::getline(in, kv, ',')) {
    const size_t eq = kv.find('=');
    MG_CHECK(eq != std::string::npos, "bad workload field: ", kv);
    fields[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  auto set = [&](const char* name, auto* field) {
    auto it = fields.find(name);
    if (it == fields.end()) return;
    std::istringstream(it->second) >> *field;
    fields.erase(it);
  };
  Workload w;
  if (sim == "aliexpress") {
    data::AliExpressConfig c;
    set("country", &c.country);
    w = Simulate<data::AliExpressSim>(c);
  } else if (sim == "qm9") {
    w = Simulate<data::Qm9Sim>(data::Qm9Config{});
  } else if (sim == "movielens") {
    data::MovieLensConfig c;
    set("genres", &c.num_genres);
    set("relatedness", &c.relatedness);
    set("train", &c.train_per_task);
    set("test", &c.test_per_task);
    w = Simulate<data::MovieLensSim>(c);
  } else if (sim == "nyuv2" || sim == "cityscapes") {
    data::SceneConfig c;
    c.mode = sim == "nyuv2" ? data::SceneMode::kNyu
                            : data::SceneMode::kCityscapes;
    w = Simulate<data::SceneSim>(c);
  } else if (sim == "office_home") {
    w = Simulate<data::OfficeHomeSim>(data::OfficeHomeConfig{});
  } else {
    MG_FATAL("unknown workload: ", spec);
  }
  MG_CHECK(fields.empty(), "unknown field in workload ", spec);
  return w;
}

/// Model factory by architecture name: the harness's MLP architectures,
/// plus the scene and AliExpress models and Fig. 1's small MMoE.
harness::ModelFactory MakeFactory(const std::string& arch, int64_t input_dim) {
  if (arch == "scene_conv") return harness::SceneConvFactory(3, 16, 2);
  if (arch == "embedding_hps") {
    const data::AliExpressConfig c;
    return harness::EmbeddingHpsFactory(c.dense_dim, c.num_user_segments,
                                        c.num_item_categories);
  }
  if (arch == "mmoe_4x32") {
    return [input_dim](const std::vector<int64_t>& out_dims, Rng& rng) {
      mtl::MmoeConfig mc;
      mc.input_dim = input_dim;
      mc.num_experts = 4;
      mc.expert_dims = {32};
      mc.task_output_dims = out_dims;
      return std::make_unique<mtl::MmoeModel>(mc, rng);
    };
  }
  return harness::ArchitectureFactory(arch, input_dim);
}

/// Averages RunResults over seeds, elementwise: metric values, risks, mean
/// GCD and loss curves (the wall times are not read here).
RunResult AverageResults(const std::vector<RunResult>& runs) {
  MG_CHECK(!runs.empty());
  RunResult avg = runs[0];
  for (size_t r = 1; r < runs.size(); ++r) {
    const RunResult& x = runs[r];
    for (size_t t = 0; t < avg.task_metrics.size(); ++t) {
      for (size_t m = 0; m < avg.task_metrics[t].size(); ++m) {
        avg.task_metrics[t][m].value += x.task_metrics[t][m].value;
      }
    }
    for (size_t t = 0; t < avg.test_risks.size(); ++t) {
      avg.test_risks[t] += x.test_risks[t];
    }
    avg.mean_gcd += x.mean_gcd;
    for (size_t i = 0; i < avg.loss_curve.size() && i < x.loss_curve.size();
         ++i) {
      for (size_t t = 0; t < avg.loss_curve[i].size(); ++t) {
        avg.loss_curve[i][t] += x.loss_curve[i][t];
      }
    }
  }
  const double inv = 1.0 / runs.size();
  for (auto& tm : avg.task_metrics) {
    for (auto& mv : tm) mv.value *= inv;
  }
  for (auto& r : avg.test_risks) r *= inv;
  avg.mean_gcd *= inv;
  for (auto& row : avg.loss_curve) {
    for (auto& v : row) v *= static_cast<float>(inv);
  }
  return avg;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void Fnv1a(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ull;
  }
}

/// Folds every deterministic field of `r` into `h`; wall times are left out.
void Fold(uint64_t* h, const RunResult& r) {
  for (const harness::TaskMetrics& tm : r.task_metrics) {
    for (const harness::MetricValue& mv : tm) {
      Fnv1a(h, &mv.value, sizeof(mv.value));
    }
  }
  Fnv1a(h, r.test_risks.data(), r.test_risks.size() * sizeof(double));
  Fnv1a(h, r.final_losses.data(), r.final_losses.size() * sizeof(float));
  for (const std::vector<float>& point : r.loss_curve) {
    Fnv1a(h, point.data(), point.size() * sizeof(float));
  }
  Fnv1a(h, &r.mean_gcd, sizeof(r.mean_gcd));
}

class Runner {
 public:
  explicit Runner(int seeds) : seeds_(seeds) {}

  /// Trains (or recalls) every cell of `row` for every seed, folding each
  /// per-seed result into that seed's checksum, panel by panel and cell by
  /// cell.
  Grid RunRow(const Row& row, std::vector<uint64_t>* checksums) {
    checksums->assign(seeds_, kFnvOffset);
    Grid grid{row, {}};
    for (const Panel& panel : row.panels) {
      std::vector<RunResult>& averaged = grid.results.emplace_back();
      for (const Cell& cell : panel.cells) {
        std::vector<RunResult> runs;
        for (int s = 0; s < seeds_; ++s) {
          runs.push_back(RunSeed(panel, cell, 1 + s));
          Fold(&(*checksums)[s], runs.back());
        }
        averaged.push_back(AverageResults(runs));
      }
    }
    return grid;
  }

 private:
  const RunResult& RunSeed(const Panel& panel, const Cell& cell, int seed) {
    auto wit = workloads_.find(panel.workload);
    if (wit == workloads_.end()) {
      wit = workloads_.emplace(panel.workload, MakeWorkload(panel.workload))
                .first;
    }
    const Workload& w = wit->second;
    std::vector<int> tasks = cell.tasks;
    if (tasks.empty()) {
      for (int t = 0; t < w.data->num_tasks(); ++t) tasks.push_back(t);
    }
    const Protocol& p = panel.protocol;
    const core::MoCoGradOptions& o = cell.mocograd;
    std::string key = panel.workload + "|" + panel.arch + "|tasks";
    for (int t : tasks) key += " " + std::to_string(t);
    key += Format("|%d/%d/%a|%s|%a/%a/%d/%d|seed %d", p.steps, p.batch_size,
                  p.lr, cell.method.c_str(), o.lambda, o.beta1,
                  o.use_raw_gradient, o.accumulate_all_conflicts, seed);
    auto it = runs_.find(key);
    if (it != runs_.end()) return it->second;

    harness::TrainConfig cfg;
    cfg.steps = p.steps;
    cfg.batch_size = p.batch_size;
    cfg.lr = p.lr;
    cfg.seed = seed;
    cfg.loss_curve_every = kCurveEvery;
    const harness::ModelFactory factory = MakeFactory(panel.arch, w.input_dim);
    core::AggregatorOptions opts;
    opts.mocograd = cell.mocograd;
    RunResult r =
        cell.method == "stl"
            ? harness::StlBaseline(*w.data, tasks, factory, cfg)
            : harness::RunMethod(*w.data, tasks, cell.method, factory, cfg,
                                 opts);
    return runs_.emplace(key, std::move(r)).first->second;
  }

  int seeds_;
  std::map<std::string, Workload> workloads_;
  std::map<std::string, RunResult> runs_;
};

// --- Output -----------------------------------------------------------------

void PrintTable(const Grid& g) {
  const Row& row = g.row;
  const bool many = row.panels.size() > 1;
  bool delta = false, paper = false;
  for (size_t p = 0; p < row.panels.size(); ++p) {
    delta = delta || g.HasStl(p);
    paper = paper || !row.panels[p].paper.empty();
  }
  if (row.task_headers.empty() && row.mean_header.empty() && !delta) return;

  TextTable table;
  std::vector<std::string> header;
  if (many) header.push_back(row.panel_header);
  header.push_back(row.cell_header);
  header.insert(header.end(), row.task_headers.begin(),
                row.task_headers.end());
  if (!row.mean_header.empty()) header.push_back(row.mean_header);
  if (delta) header.push_back("DeltaM");
  if (paper) header.push_back("paper DeltaM");
  table.SetHeader(header);
  for (size_t p = 0; p < row.panels.size(); ++p) {
    const Panel& panel = row.panels[p];
    if (p > 0) table.AddSeparator();
    for (size_t c = 0; c < panel.cells.size(); ++c) {
      const RunResult& r = g.results[p][c];
      std::vector<std::string> line;
      if (many) line.push_back(panel.label);
      line.push_back(panel.cells[c].label);
      size_t shown = 0;
      for (const harness::TaskMetrics& tm : r.task_metrics) {
        for (const harness::MetricValue& mv : tm) {
          if (shown++ < row.task_headers.size()) {
            line.push_back(TextTable::Num(mv.value, 4));
          }
        }
      }
      if (!row.mean_header.empty()) {
        line.push_back(TextTable::Num(MeanFirstMetric(r), 4));
      }
      if (delta) line.push_back(g.HasStl(p) ? Pct(g.DeltaM(p, c)) : "-");
      if (paper) {
        auto it = panel.paper.find(panel.cells[c].label);
        line.push_back(it != panel.paper.end() ? Pct(it->second / 100.0)
                                               : "-");
      }
      table.AddRow(line);
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  if (row.pooled_paper.empty()) return;
  TextTable pooled;
  pooled.SetHeader({row.cell_header, "pooled DeltaM", "paper DeltaM"});
  for (size_t c = 0; c < row.panels[0].cells.size(); ++c) {
    const std::string& label = row.panels[0].cells[c].label;
    auto it = row.pooled_paper.find(label);
    pooled.AddRow({label, Pct(g.PooledDeltaM(c)),
                   it != row.pooled_paper.end() ? Pct(it->second / 100.0)
                                                : "-"});
  }
  std::printf("%s\n", pooled.ToString().c_str());
}

int Main(int argc, char** argv) {
  const std::vector<Row> rows = Rows();
  std::string golden_path;
  std::vector<const Row*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--golden" && i + 1 < argc) {
      golden_path = argv[++i];
      continue;
    }
    const Row* found = nullptr;
    for (const Row& row : rows) {
      if (row.name == arg) found = &row;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "bench_paper: unknown row '%s'; valid rows:",
                   arg.c_str());
      for (const Row& row : rows) std::fprintf(stderr, " %s", row.name.c_str());
      std::fprintf(stderr, "\nusage: bench_paper [--golden <path>] [row ...]\n");
      return 2;
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const Row& row : rows) selected.push_back(&row);
  }
  std::set<std::string> golden;  // its "checksum <row> seed=<n> <hex>" lines
  if (!golden_path.empty()) {
    std::ifstream in(golden_path);
    if (!in) {
      std::fprintf(stderr, "bench_paper: cannot read %s\n",
                   golden_path.c_str());
      return 2;
    }
    for (std::string line; std::getline(in, line);) golden.insert(line);
  }

  const int seeds = NumSeeds();
  const bool gate_claims = seeds == kDocumentedSeeds;
  Runner runner(seeds);
  int failures = 0;
  for (const Row* row : selected) {
    std::vector<uint64_t> checksums;
    const Grid grid = runner.RunRow(*row, &checksums);
    std::printf("%s | %s, %d seeds\n", row->name.c_str(), row->title.c_str(),
                seeds);
    PrintTable(grid);
    if (row->print != nullptr) row->print(grid);
    for (int s = 0; s < seeds; ++s) {
      const std::string line =
          Format("checksum %s seed=%d %016llx", row->name.c_str(), 1 + s,
                 static_cast<unsigned long long>(checksums[s]));
      std::printf("%s\n", line.c_str());
      if (!golden_path.empty() && golden.count(line) == 0) {
        std::printf("DRIFT: row %s seed %d: this checksum is not in %s\n",
                    row->name.c_str(), 1 + s, golden_path.c_str());
        ++failures;
      }
    }
    if (row->claims != nullptr) {
      for (const Claim& claim : row->claims(grid)) {
        const bool failed = gate_claims && !claim.holds;
        std::printf("claim %s: %s\n",
                    !gate_claims ? "(not gated)"
                    : failed     ? "FAIL"
                                 : "PASS",
                    claim.text.c_str());
        failures += failed;
      }
    }
    if (!row->not_asserted.empty()) {
      std::printf("not asserted: %s\n", row->not_asserted.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  if (!gate_claims) {
    std::printf("claims are gated at %d seeds only; this run used %d\n",
                kDocumentedSeeds, seeds);
  }
  if (failures > 0) {
    std::printf("bench_paper: %d gate failure(s)\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mocograd

int main(int argc, char** argv) { return mocograd::Main(argc, argv); }
