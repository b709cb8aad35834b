#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace mocograd {
namespace obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override {
    MetricsRegistry::Global().ResetAll();
    SetMetricsEnabled(false);
  }
};

TEST_F(MetricsTest, CounterAddsAtomically) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 1000; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), 4000);
}

TEST_F(MetricsTest, DisabledMacroSkipsCounting) {
  SetMetricsEnabled(false);
  MG_METRIC_COUNT("test.gated", 5);
  SetMetricsEnabled(true);
  MG_METRIC_COUNT("test.gated", 2);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.gated")->value(), 2);
}

TEST_F(MetricsTest, RegistryReturnsStablePointers) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.stable");
  Counter* b = MetricsRegistry::Global().GetCounter("test.stable");
  EXPECT_EQ(a, b);
}

TEST_F(MetricsTest, HistogramBasicStats) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist");
  for (double v : {1.0, 2.0, 3.0, 4.0}) h->Record(v);
  EXPECT_EQ(h->count(), 4);
  EXPECT_DOUBLE_EQ(h->sum(), 10.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 4.0);
}

TEST_F(MetricsTest, HistogramPercentilesClampToObservedRange) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist_pct");
  for (int i = 0; i < 100; ++i) h->Record(1.0);
  // Every sample is 1.0: any percentile must clamp to the observed value
  // despite the factor-of-2 bucket resolution.
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 1.0);
}

TEST_F(MetricsTest, HistogramPercentileOrdering) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist_order");
  // 90 small samples, 10 large ones: p50 must land near the small mode and
  // p99 near the large one (buckets are factor-of-2, so assert ranges).
  for (int i = 0; i < 90; ++i) h->Record(1e-3);
  for (int i = 0; i < 10; ++i) h->Record(1.0);
  const double p50 = h->Percentile(0.5);
  const double p99 = h->Percentile(0.99);
  EXPECT_GE(p50, 1e-3 / 2);
  EXPECT_LE(p50, 1e-3 * 2);
  EXPECT_GE(p99, 0.5);
  EXPECT_LE(p99, 1.0);
  EXPECT_LT(p50, p99);
}

TEST_F(MetricsTest, HistogramIgnoresSignOfBadSamples) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist_neg");
  h->Record(-5.0);  // clamped to 0
  EXPECT_EQ(h->count(), 1);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
}

TEST_F(MetricsTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry::Global().GetCounter("test.z_counter")->Add(7);
  MetricsRegistry::Global().GetCounter("test.a_counter")->Add(3);
  auto snap = MetricsRegistry::Global().SnapshotCounters();
  std::string prev;
  bool saw_a = false, saw_z = false;
  for (const auto& s : snap) {
    EXPECT_LE(prev, s.name);
    prev = s.name;
    if (s.name == "test.a_counter") {
      saw_a = true;
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    }
    if (s.name == "test.z_counter") {
      saw_z = true;
      EXPECT_DOUBLE_EQ(s.value, 7.0);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_z);
}

TEST_F(MetricsTest, SnapshotHistogramsSummarizesEachHistogram) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.snap_hist");
  for (int i = 0; i < 99; ++i) h->Record(1e-3);
  h->Record(1.0);
  auto snap = MetricsRegistry::Global().SnapshotHistograms();
  bool found = false;
  std::string prev;
  for (const auto& s : snap) {
    EXPECT_LE(prev, s.name);  // sorted by name
    prev = s.name;
    if (s.name == "test.snap_hist") {
      found = true;
      EXPECT_EQ(s.count, 100);
      EXPECT_NEAR(s.sum, 99 * 1e-3 + 1.0, 1e-9);
      EXPECT_LE(s.p50, s.p99);
      EXPECT_LE(s.p99, 1.0);  // clamps to observed max
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, TimeScopeMacroRecordsIntoHistogram) {
  { MG_METRIC_TIME_SCOPE("test.timed_scope"); }
  { MG_METRIC_TIME_SCOPE("test.timed_scope"); }
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.timed_scope");
  EXPECT_EQ(h->count(), 2);
  EXPECT_GE(h->min(), 0.0);
}

TEST_F(MetricsTest, DisabledTimeScopeSkipsRecording) {
  SetMetricsEnabled(false);
  { MG_METRIC_TIME_SCOPE("test.timed_gated"); }
  SetMetricsEnabled(true);
  EXPECT_EQ(MetricsRegistry::Global().GetHistogram("test.timed_gated")->count(),
            0);
}

}  // namespace
}  // namespace obs
}  // namespace mocograd
