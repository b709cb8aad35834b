#include "harness/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace mocograd {
namespace {

harness::RunResult FakeResult(double auc, double rmse) {
  harness::RunResult r;
  r.task_metrics = {{{"auc", auc}}, {{"rmse", rmse}}};
  r.mean_gcd = 0.97;
  r.mean_backward_seconds = 0.001;
  return r;
}

TEST(ReportTest, CsvContainsAllRows) {
  std::vector<harness::LabeledRun> runs = {
      {"mocograd", FakeResult(0.9, 1.0)},
      {"ew", FakeResult(0.85, 1.1)},
  };
  const std::string csv = harness::RunsToCsv(runs);
  EXPECT_NE(csv.find("label,task,metric,value,higher_is_better"),
            std::string::npos);
  EXPECT_NE(csv.find("mocograd,0,auc,0.9,1"), std::string::npos);
  EXPECT_NE(csv.find("ew,1,rmse,1.1,0"), std::string::npos);
  EXPECT_NE(csv.find("mocograd,-,mean_gcd,0.97,0"), std::string::npos);
  // No baseline → no delta_m rows.
  EXPECT_EQ(csv.find("delta_m"), std::string::npos);
}

TEST(ReportTest, PhaseRowsOmittedWhenStepsNeverTimed) {
  std::vector<harness::LabeledRun> runs = {{"ew", FakeResult(0.8, 1.0)}};
  const std::string csv = harness::RunsToCsv(runs);
  EXPECT_EQ(csv.find("phase_"), std::string::npos);
}

TEST(ReportTest, PhaseSummaryRows) {
  harness::RunResult r = FakeResult(0.9, 1.0);
  r.mean_phase.Add("forward", 0.25);
  r.mean_phase.Add("backward", 0.5);
  r.mean_phase.Add("aggregate", 0.125);
  r.mean_phase.Add("optimizer", 0.0);
  r.mean_aggregator_phase.Add("gram", 0.0625);
  r.mean_aggregator_phase.Add("solver", 0.03125);
  std::vector<harness::LabeledRun> runs = {{"mocograd", r}};
  const std::string csv = harness::RunsToCsv(runs);
  // One row per bucket, in the profile's order, zero buckets included...
  const size_t fwd = csv.find("mocograd,-,phase_forward_seconds,0.25,0");
  const size_t bwd = csv.find("mocograd,-,phase_backward_seconds,0.5,0");
  const size_t agg = csv.find("mocograd,-,phase_aggregate_seconds,0.125,0");
  const size_t opt = csv.find("mocograd,-,phase_optimizer_seconds,0,0");
  ASSERT_NE(opt, std::string::npos);
  EXPECT_LT(fwd, bwd);
  EXPECT_LT(bwd, agg);
  EXPECT_LT(agg, opt);
  // ...none for a bucket the step never entered, and aggregator sub-phases
  // under phase_agg_<name>_seconds.
  EXPECT_EQ(csv.find("phase_clip_seconds"), std::string::npos);
  EXPECT_NE(csv.find("mocograd,-,phase_agg_gram_seconds,0.0625,0"),
            std::string::npos);
  EXPECT_NE(csv.find("mocograd,-,phase_agg_solver_seconds,0.03125,0"),
            std::string::npos);
}

TEST(ReportTest, DeltaMRowsWithBaseline) {
  harness::RunResult stl = FakeResult(0.8, 1.0);
  std::vector<harness::LabeledRun> runs = {{"mocograd", FakeResult(0.88, 0.9)}};
  const std::string csv = harness::RunsToCsv(runs, &stl);
  EXPECT_NE(csv.find("mocograd,-,delta_m,0.1,1"), std::string::npos);
}

TEST(ReportTest, WritesFile) {
  const std::string path =
      std::string(::testing::TempDir()) + "/report.csv";
  std::vector<harness::LabeledRun> runs = {{"ew", FakeResult(0.8, 1.0)}};
  ASSERT_TRUE(harness::WriteCsvReport(runs, path).ok());
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "label,task,metric,value,higher_is_better");
  std::remove(path.c_str());
}

TEST(ReportTest, UnwritablePathFails) {
  std::vector<harness::LabeledRun> runs = {{"ew", FakeResult(0.8, 1.0)}};
  auto s = harness::WriteCsvReport(runs, "/nonexistent_dir_xyz/report.csv");
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace mocograd
