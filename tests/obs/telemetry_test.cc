#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace mocograd {
namespace obs {
namespace {

TEST(AggregatorTraceTest, BeginResetsEverything) {
  AggregatorTrace trace;
  trace.Begin("mocograd", 3);
  trace.RecordPair(0, 1, -0.5, 0.2, true);
  trace.SetCosine(0, 1, -0.5);
  trace.set_solver_iterations(7);
  trace.set_solver_weights({1.0, 2.0, 3.0});
  trace.AddStat("x", 1.0);

  trace.Begin("pcgrad", 2);
  EXPECT_EQ(trace.method(), "pcgrad");
  EXPECT_EQ(trace.num_tasks(), 2);
  EXPECT_TRUE(trace.pairs().empty());
  EXPECT_EQ(trace.solver_iterations(), 0);
  EXPECT_TRUE(trace.solver_weights().empty());
  EXPECT_TRUE(trace.stats().empty());
  EXPECT_FALSE(trace.cosines_complete());
  EXPECT_TRUE(std::isnan(trace.cosine(0, 1)));
  EXPECT_EQ(trace.cosine(1, 1), 1.0);
}

TEST(AggregatorTraceTest, CosineCompletenessCounting) {
  AggregatorTrace trace;
  trace.Begin("m", 3);
  EXPECT_FALSE(trace.cosines_complete());
  trace.SetCosine(0, 1, 0.5);
  trace.SetCosine(0, 1, 0.4);  // re-publishing the same cell counts once
  trace.SetCosine(0, 2, -0.1);
  EXPECT_FALSE(trace.cosines_complete());
  trace.SetCosine(1, 2, 0.9);
  EXPECT_TRUE(trace.cosines_complete());
  EXPECT_EQ(trace.cosine(0, 1), 0.4);
  EXPECT_EQ(trace.cosine(1, 0), 0.4);  // symmetric

  // K < 2 is trivially complete.
  trace.Begin("m", 1);
  EXPECT_TRUE(trace.cosines_complete());
}

TEST(AggregatorTraceTest, SetCosinesFromGramMatchesDefinition) {
  AggregatorTrace trace;
  trace.Begin("cagrad", 2);
  // g0·g0 = 4, g1·g1 = 9, g0·g1 = -3 → cos = -0.5.
  trace.SetCosinesFromGram({{4.0, -3.0}, {-3.0, 9.0}});
  EXPECT_TRUE(trace.cosines_complete());
  EXPECT_DOUBLE_EQ(trace.cosine(0, 1), -0.5);

  // Zero-norm rows get cosine 0 (the CosineSimilarity convention).
  trace.Begin("cagrad", 2);
  trace.SetCosinesFromGram({{0.0, 0.0}, {0.0, 9.0}});
  EXPECT_EQ(trace.cosine(0, 1), 0.0);
}

TEST(AggregatorTraceTest, MarkActedUpgradesRecordedPair) {
  AggregatorTrace trace;
  trace.Begin("mocograd", 3);
  trace.RecordPair(0, 2, -0.3, 0.0, false);
  trace.RecordPair(0, 1, -0.6, 0.0, false);
  trace.MarkActed(0, 1, 0.25);
  ASSERT_EQ(trace.pairs().size(), 2u);
  EXPECT_FALSE(trace.pairs()[0].acted);
  EXPECT_TRUE(trace.pairs()[1].acted);
  EXPECT_EQ(trace.pairs()[1].magnitude, 0.25);

  // MarkActed on an unrecorded pair appends a new decision.
  trace.MarkActed(1, 2, 0.5);
  ASSERT_EQ(trace.pairs().size(), 3u);
  EXPECT_TRUE(trace.pairs()[2].acted);
  EXPECT_TRUE(std::isnan(trace.pairs()[2].cosine));
}

class TelemetrySinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/telemetry_test.jsonl";
    std::remove(path_.c_str());
    MetricsRegistry::Global().ResetAll();
  }
  // Opening a sink turns metrics on process-wide; turn them off again.
  void TearDown() override {
    std::remove(path_.c_str());
    SetMetricsEnabled(false);
  }

  static TelemetryRecord OneTaskRecord(const std::string& method) {
    TelemetryRecord rec;
    rec.method = method;
    rec.losses = {1.0f};
    rec.num_tasks = 1;
    return rec;
  }

  std::vector<std::string> ReadLines() {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      if (nl > pos) lines.push_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
    return lines;
  }

  std::string path_;
};

TEST_F(TelemetrySinkTest, WritesParsableStepRecords) {
  TelemetrySink sink(path_, /*every=*/2);
  ASSERT_TRUE(sink.ok());
  EXPECT_TRUE(sink.ShouldSample(0));
  EXPECT_FALSE(sink.ShouldSample(1));
  EXPECT_TRUE(sink.ShouldSample(2));

  AggregatorTrace trace;
  trace.Begin("mocograd", 2);
  trace.SetCosine(0, 1, -0.25);
  trace.RecordPair(0, 1, -0.25, 0.5, true);
  trace.set_solver_weights({0.5, 0.5});
  trace.AddStat("extra", 3.0);

  TelemetryRecord rec;
  rec.step = 4;
  rec.method = "mocograd";
  rec.num_tasks = 2;
  rec.losses = {1.5f, 2.5f};
  rec.task_weights = {1.0f, 1.0f};
  rec.grad_norms = {3.0, 4.0};
  rec.cosines = {1.0, -0.25, -0.25, 1.0};
  rec.mean_gcd = 1.25;
  rec.max_gcd = 1.25;
  rec.num_conflicting_pairs = 1;
  rec.num_pairs = 1;
  rec.trace = &trace;
  PhaseProfile phase;
  phase.Add("forward", 0.25);
  rec.phase = &phase;
  sink.WriteRecord(rec);
  sink.WriteWatchdogEvent("mocograd",
                          {4, "grad_explosion", -1, 100.0, 10.0});

  const auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 2u);

  Result<JsonValue> step = ParseJson(lines[0]);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  const JsonValue& s = step.value();
  EXPECT_EQ(s.StringOr("type", ""), "step");
  EXPECT_EQ(s.NumberOr("step", -1), 4.0);
  EXPECT_EQ(s.StringOr("method", ""), "mocograd");
  ASSERT_NE(s.Find("losses"), nullptr);
  EXPECT_EQ(s.Find("losses")->items.size(), 2u);
  EXPECT_EQ(s.Find("losses")->items[0].number_value, 1.5);
  const JsonValue* gcd = s.Find("gcd");
  ASSERT_NE(gcd, nullptr);
  EXPECT_EQ(gcd->NumberOr("conflicting_pairs", -1), 1.0);
  const JsonValue* cosines = s.Find("cosines");
  ASSERT_NE(cosines, nullptr);
  ASSERT_EQ(cosines->items.size(), 1u);  // only i<j triples
  EXPECT_EQ(cosines->items[0].items[2].number_value, -0.25);
  const JsonValue* decisions = s.Find("decisions");
  ASSERT_NE(decisions, nullptr);
  ASSERT_EQ(decisions->items.size(), 1u);
  EXPECT_TRUE(decisions->items[0].Find("acted")->bool_value);
  EXPECT_EQ(decisions->items[0].NumberOr("mag", 0), 0.5);
  const JsonValue* solver = s.Find("solver");
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->Find("weights")->items.size(), 2u);
  ASSERT_NE(s.Find("stats"), nullptr);
  EXPECT_EQ(s.Find("stats")->NumberOr("extra", 0), 3.0);
  ASSERT_NE(s.Find("phase"), nullptr);
  EXPECT_EQ(s.Find("phase")->NumberOr("forward", 0), 0.25);

  Result<JsonValue> wd = ParseJson(lines[1]);
  ASSERT_TRUE(wd.ok()) << wd.status().ToString();
  EXPECT_EQ(wd.value().StringOr("type", ""), "watchdog");
  EXPECT_EQ(wd.value().StringOr("kind", ""), "grad_explosion");
  EXPECT_EQ(wd.value().NumberOr("task", 0), -1.0);
  EXPECT_EQ(wd.value().NumberOr("value", 0), 100.0);
}

TEST_F(TelemetrySinkTest, NonFiniteValuesSerializeAsNull) {
  {
    TelemetrySink sink(path_, 1);
    ASSERT_TRUE(sink.ok());
    AggregatorTrace trace;
    trace.Begin("pcgrad", 2);
    trace.RecordPair(0, 1, std::nan(""), 0.1, true);
    TelemetryRecord rec;
    rec.step = 0;
    rec.method = "pcgrad";
    rec.num_tasks = 2;
    rec.losses = {1.0f, 2.0f};
    rec.trace = &trace;
    sink.WriteRecord(rec);
  }  // destructor flushes buffered step records

  const auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 1u);
  Result<JsonValue> parsed = ParseJson(lines[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* decisions = parsed.value().Find("decisions");
  ASSERT_NE(decisions, nullptr);
  ASSERT_EQ(decisions->items.size(), 1u);
  const JsonValue* cos = decisions->items[0].Find("cos");
  ASSERT_NE(cos, nullptr);
  EXPECT_TRUE(cos->is_null());
}

TEST_F(TelemetrySinkTest, AppendsAcrossSinkInstances) {
  {
    TelemetrySink sink(path_, 1);
    sink.WriteRecord(OneTaskRecord("a"));
  }
  {
    TelemetrySink sink(path_, 1);
    sink.WriteRecord(OneTaskRecord("b"));
  }
  EXPECT_EQ(ReadLines().size(), 2u);
}

TEST_F(TelemetrySinkTest, StepRecordsCarryCounterDeltas) {
  TelemetryRecord rec = OneTaskRecord("m");
  {
    TelemetrySink sink(path_, 1);
    ASSERT_TRUE(sink.ok());
    EXPECT_TRUE(MetricsEnabled());  // opening the sink turns metrics on
    MG_METRIC_COUNT("test.sink_counter", 3);
    sink.WriteRecord(rec);
    MG_METRIC_COUNT("test.sink_counter", 4);
    rec.step = 1;
    sink.WriteRecord(rec);
    sink.WriteRecord(rec);
  }

  const auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 3u);
  // Deltas, not totals: +3, then +4, then nothing (zero deltas omitted).
  const double want[] = {3.0, 4.0, -1.0};
  for (size_t i = 0; i < lines.size(); ++i) {
    Result<JsonValue> parsed = ParseJson(lines[i]);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue* counters = parsed.value().Find("counters");
    ASSERT_NE(counters, nullptr) << lines[i];
    EXPECT_EQ(counters->NumberOr("test.sink_counter", -1.0), want[i])
        << lines[i];
  }
}

TEST_F(TelemetrySinkTest, KernelsKeyIsOmittedWhileHistogramsAreEmpty) {
  TelemetryRecord rec = OneTaskRecord("m");
  {
    TelemetrySink sink(path_, 1);
    ASSERT_TRUE(sink.ok());
    sink.WriteRecord(rec);
    MetricsRegistry::Global()
        .GetHistogram("test.kernel.seconds")
        ->Record(2e-3);
    rec.step = 1;
    sink.WriteRecord(rec);
  }

  const auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 2u);
  Result<JsonValue> before = ParseJson(lines[0]);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().Find("kernels"), nullptr) << lines[0];
  Result<JsonValue> after = ParseJson(lines[1]);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const JsonValue* kernels = after.value().Find("kernels");
  ASSERT_NE(kernels, nullptr) << lines[1];
  const JsonValue* k = kernels->Find("test.kernel.seconds");
  ASSERT_NE(k, nullptr) << lines[1];
  EXPECT_EQ(k->NumberOr("count", 0), 1.0);
  EXPECT_LE(k->NumberOr("p50", -1), k->NumberOr("p99", -2));
}

TEST(TelemetrySinkStatusTest, BadPathReportsError) {
  TelemetrySink sink("/nonexistent-dir/x/y.jsonl", 1);
  EXPECT_FALSE(sink.ok());
}

}  // namespace
}  // namespace obs
}  // namespace mocograd
