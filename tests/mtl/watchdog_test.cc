#include "mtl/watchdog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace mocograd {
namespace mtl {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

WatchdogOptions FastOptions() {
  WatchdogOptions opts;
  opts.warmup_steps = 2;
  return opts;
}

TEST(WatchdogTest, HealthyRunStaysQuiet) {
  TrainingWatchdog wd(FastOptions());
  for (int step = 0; step < 50; ++step) {
    const float l = 2.0f - 0.01f * step;
    auto events = wd.Observe(step, {l, l * 0.5f}, {0.1f, -0.2f, 0.3f});
    EXPECT_TRUE(events.empty()) << "step " << step;
  }
}

TEST(WatchdogTest, FlagsNonFiniteLossPerTask) {
  TrainingWatchdog wd(FastOptions());
  auto events = wd.Observe(0, {1.0f, kNan, kInf}, {0.1f});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, "nonfinite_loss");
  EXPECT_EQ(events[0].task, 1);
  EXPECT_EQ(events[1].kind, "nonfinite_loss");
  EXPECT_EQ(events[1].task, 2);
}

TEST(WatchdogTest, FlagsNonFiniteGradient) {
  TrainingWatchdog wd(FastOptions());
  auto events = wd.Observe(0, {1.0f}, {0.1f, kNan, kNan, 0.2f});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "nonfinite_grad");
  EXPECT_EQ(events[0].task, -1);
  EXPECT_EQ(events[0].value, 2.0);  // two poisoned coordinates
}

TEST(WatchdogTest, CountsEveryNonFiniteKindButNotLargeFiniteValues) {
  TrainingWatchdog wd(FastOptions());
  auto events = wd.Observe(0, {1.0f}, {kInf, -kInf, kNan, 3e38f});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "nonfinite_grad");
  EXPECT_EQ(events[0].value, 3.0);
  // An infinity without a NaN makes the squared norm +inf, not NaN.
  events = wd.Observe(1, {1.0f}, {0.5f, -kInf});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value, 1.0);

  // Squares of the largest floats still sum finitely in double.
  TrainingWatchdog clean(FastOptions());
  EXPECT_TRUE(
      clean.Observe(0, {1.0f}, std::vector<float>(64, 3e38f)).empty());
}

TEST(WatchdogTest, FlagsLossDivergenceOnlyAfterWarmup) {
  WatchdogOptions opts = FastOptions();
  opts.loss_divergence_factor = 10.0;
  TrainingWatchdog wd(opts);
  // Before warmup a huge loss does not trip the divergence detector.
  EXPECT_TRUE(wd.Observe(0, {1.0f}, {0.1f}).empty());
  EXPECT_TRUE(wd.Observe(1, {1e6f}, {0.1f}).empty());
  // After warmup, exceeding factor × running-min does.
  EXPECT_TRUE(wd.Observe(2, {1.5f}, {0.1f}).empty());
  auto events = wd.Observe(3, {50.0f}, {0.1f});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "loss_divergence");
  EXPECT_EQ(events[0].task, 0);
  EXPECT_EQ(events[0].value, 50.0);
}

TEST(WatchdogTest, FlagsGradientExplosionAgainstEma) {
  WatchdogOptions opts = FastOptions();
  opts.grad_explosion_factor = 10.0;
  TrainingWatchdog wd(opts);
  EXPECT_TRUE(wd.Observe(0, {1.0f}, {1.0f}).empty());
  EXPECT_TRUE(wd.Observe(1, {1.0f}, {1.0f}).empty());
  EXPECT_TRUE(wd.Observe(2, {1.0f}, {1.0f}).empty());
  auto events = wd.Observe(3, {1.0f}, {100.0f});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "grad_explosion");
  EXPECT_EQ(events[0].value, 100.0);
  EXPECT_GT(events[0].threshold, 0.0);
}

TEST(WatchdogTest, DisabledWatchdogReportsNothing) {
  WatchdogOptions opts = FastOptions();
  opts.enabled = false;
  TrainingWatchdog wd(opts);
  EXPECT_TRUE(wd.Observe(0, {kNan}, {kNan}).empty());
}

TEST(WatchdogTest, ResetClearsRunningState) {
  WatchdogOptions opts = FastOptions();
  opts.loss_divergence_factor = 10.0;
  TrainingWatchdog wd(opts);
  for (int step = 0; step < 5; ++step) {
    wd.Observe(step, {1.0f}, {1.0f});
  }
  wd.Reset();
  // Fresh state: a big loss right after Reset is within warmup again.
  EXPECT_TRUE(wd.Observe(0, {1000.0f}, {1.0f}).empty());
}

}  // namespace
}  // namespace mtl
}  // namespace mocograd
