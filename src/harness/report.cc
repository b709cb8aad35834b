#include "harness/report.h"

#include <cstdio>
#include <sstream>

namespace mocograd {
namespace harness {

std::string RunsToCsv(const std::vector<LabeledRun>& runs,
                      const RunResult* stl_baseline) {
  std::ostringstream out;
  out << "label,task,metric,value,higher_is_better\n";
  auto emit = [&](const std::string& label, const std::string& task,
                  const std::string& metric, double value, int hib) {
    out << label << "," << task << "," << metric << "," << value << ","
        << hib << "\n";
  };
  for (const LabeledRun& run : runs) {
    for (size_t t = 0; t < run.result.task_metrics.size(); ++t) {
      for (const MetricValue& mv : run.result.task_metrics[t]) {
        emit(run.label, std::to_string(t), mv.name, mv.value,
             HigherIsBetter(mv.name) ? 1 : 0);
      }
    }
    emit(run.label, "-", "mean_gcd", run.result.mean_gcd, 0);
    emit(run.label, "-", "mean_backward_seconds",
         run.result.mean_backward_seconds, 0);
    // Per-phase step attribution (no rows for hand-built results that
    // never timed a step).
    for (const auto& [name, seconds] : run.result.mean_phase.entries()) {
      emit(run.label, "-", "phase_" + name + "_seconds", seconds, 0);
    }
    for (const auto& [name, seconds] :
         run.result.mean_aggregator_phase.entries()) {
      emit(run.label, "-", "phase_agg_" + name + "_seconds", seconds, 0);
    }
    if (stl_baseline != nullptr) {
      emit(run.label, "-", "delta_m",
           ComputeDeltaM(run.result.task_metrics,
                         stl_baseline->task_metrics),
           1);
    }
  }
  return out.str();
}

Status WriteCsvReport(const std::vector<LabeledRun>& runs,
                      const std::string& path,
                      const RunResult* stl_baseline) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open for writing: " + path);
  }
  const std::string csv = RunsToCsv(runs, stl_baseline);
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  std::fclose(f);
  if (!ok) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

}  // namespace harness
}  // namespace mocograd
