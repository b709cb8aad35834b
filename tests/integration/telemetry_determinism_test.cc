// The conflict observatory's core contract: telemetry, decision tracing,
// and the watchdog are observation-only. Training with the full telemetry
// stack attached (sink sampling every step, which also turns on the
// metrics counters and histograms, + watchdog armed) must leave
// bit-identical parameters to training with all of it off — for any pool
// size.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/registry.h"
#include "mtl/hps.h"
#include "mtl/trainer.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "optim/optimizer.h"

namespace mocograd {
namespace {

using data::Batch;
using data::TaskKind;

class TelemetryDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalNumThreads(1); }
};

// Trains a small 3-task model and returns every parameter's bytes.
std::vector<float> Train(const std::string& method, int threads,
                         bool telemetry_on, const std::string& path) {
  ThreadPool::SetGlobalNumThreads(threads);

  Rng rng(321);
  mtl::HpsConfig cfg;
  cfg.input_dim = 24;
  cfg.shared_dims = {32, 16};
  cfg.task_output_dims = {1, 1, 1};
  mtl::HpsModel model(cfg, rng);

  Tensor x = Tensor::Randn({32, 24}, rng);
  std::vector<Batch> batches;
  for (int t = 0; t < 3; ++t) {
    Tensor y = Tensor::Randn({32, 1}, rng);
    batches.push_back(Batch{.x = x, .y = y, .labels = {}});
  }

  auto aggregator = core::MakeAggregator(method).value();
  optim::Adam opt(model.Parameters(), 1e-2f);
  mtl::MtlTrainer trainer(&model, aggregator.get(), &opt,
                          {TaskKind::kRegression, TaskKind::kRegression,
                           TaskKind::kRegression},
                          /*seed=*/99);

  std::unique_ptr<obs::TelemetrySink> sink;
  mtl::WatchdogOptions wd_opts;
  if (telemetry_on) {
    sink = std::make_unique<obs::TelemetrySink>(path, /*every=*/1);
    EXPECT_TRUE(sink->ok()) << sink->status().ToString();
    trainer.set_telemetry_sink(sink.get());
    wd_opts.enabled = true;
    wd_opts.warmup_steps = 1;  // arm the detectors almost immediately
  } else {
    // An earlier "on" run's sink left the process-wide metrics switch on;
    // turn it off so this run really records no counters or histograms.
    obs::SetMetricsEnabled(false);
    wd_opts.enabled = false;
  }
  trainer.watchdog()->set_options(wd_opts);

  for (int step = 0; step < 6; ++step) trainer.Step(batches);
  sink.reset();  // flush the records before reading them back
  if (telemetry_on) {
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"counters\""), std::string::npos);
  }

  std::vector<float> out;
  for (autograd::Variable* p : model.Parameters()) {
    const float* d = p->value().data();
    out.insert(out.end(), d, d + p->NumElements());
  }
  return out;
}

TEST_F(TelemetryDeterminismTest,
       TelemetryAndWatchdogAreBitwiseInvisibleAcrossPools) {
  const std::string path =
      ::testing::TempDir() + "/telemetry_determinism.jsonl";
  for (const char* method : {"mocograd", "pcgrad"}) {
    std::remove(path.c_str());
    const std::vector<float> baseline =
        Train(method, 1, /*telemetry_on=*/false, path);
    for (int threads : {1, 8}) {
      for (bool telemetry_on : {false, true}) {
        const std::vector<float> got =
            Train(method, threads, telemetry_on, path);
        ASSERT_EQ(got.size(), baseline.size());
        EXPECT_EQ(std::memcmp(got.data(), baseline.data(),
                              got.size() * sizeof(float)),
                  0)
            << method << " differs at threads=" << threads
            << " telemetry=" << telemetry_on;
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace mocograd
