// Example: a research workflow end to end — conflict analysis, schedulers,
// checkpointing and CSV export.
//
// This walkthrough shows the library's "tooling" surface on top of the core
// algorithm: it trains MoCoGrad on the QM9 workload while recording which
// task pairs conflict (ConflictTracker), decays the learning rate with the
// μ/√t schedule of the paper's Corollary 1, saves the trained model to a
// checkpoint, reloads it into a fresh model, verifies the predictions
// match, and exports the results as CSV for plotting.
//
//   ./build/examples/example_research_workflow

#include <cstdio>

#include "core/analysis.h"
#include "core/registry.h"
#include "data/qm9.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "mtl/hps.h"
#include "mtl/trainer.h"
#include "nn/serialize.h"
#include "optim/optimizer.h"
#include "optim/scheduler.h"

int main() {
  using namespace mocograd;

  // --- Workload: 6 QM9-style property-regression tasks. ------------------
  data::Qm9Config qc;
  qc.num_properties = 6;
  data::Qm9Sim dataset(qc);

  // --- Model / optimizer / schedule / aggregator, wired manually. --------
  Rng init_rng(1);
  mtl::HpsConfig hps;
  hps.input_dim = dataset.input_dim();
  hps.shared_dims = {64, 32};
  hps.task_output_dims = std::vector<int64_t>(6, 1);
  mtl::HpsModel model(hps, init_rng);

  auto aggregator = core::MakeAggregator("mocograd").value();
  optim::Adam opt(model.Parameters(), 6e-3f);
  optim::InverseSqrtLr schedule(&opt);  // μ_t = μ/√t  (Corollary 1)

  std::vector<data::TaskKind> kinds(6, data::TaskKind::kRegressionMae);
  mtl::MtlTrainer trainer(&model, aggregator.get(), &opt, kinds, /*seed=*/7);

  core::ConflictTracker tracker;

  // --- Train. -------------------------------------------------------------
  Rng data_rng(11);
  for (int step = 0; step < 300; ++step) {
    const mtl::StepStats stats =
        trainer.Step(dataset.SampleTrainBatches(32, data_rng));
    tracker.RecordFromCosines(6, stats.cosines);
    schedule.Step();
  }
  std::printf("final lr after /sqrt(t) decay: %.5f\n", opt.learning_rate());
  std::printf("%s", tracker.Summary().c_str());

  // --- Checkpoint round trip. ----------------------------------------------
  const std::string ckpt = "/tmp/mocograd_qm9.ckpt";
  MG_CHECK(nn::SaveParameters(model, ckpt).ok());
  Rng fresh_rng(99);
  mtl::HpsModel reloaded(hps, fresh_rng);
  MG_CHECK(nn::LoadParameters(reloaded, ckpt).ok());

  auto test = dataset.TestBatches();
  std::vector<autograd::Variable> inputs;
  for (const auto& b : test) inputs.emplace_back(b.x, false);
  auto p1 = model.Forward(inputs);
  auto p2 = reloaded.Forward(inputs);
  double max_diff = 0.0;
  for (int t = 0; t < 6; ++t) {
    for (int64_t i = 0; i < p1[t].NumElements(); ++i) {
      max_diff = std::max(
          max_diff, static_cast<double>(std::fabs(p1[t].value()[i] -
                                                  p2[t].value()[i])));
    }
  }
  std::printf("checkpoint round trip max |diff| = %g\n", max_diff);
  MG_CHECK(max_diff == 0.0, "reloaded model must match exactly");

  // --- CSV export via the harness. -----------------------------------------
  auto factory = harness::MlpHpsFactory(dataset.input_dim(), {64, 32});
  harness::TrainConfig cfg;
  cfg.steps = 250;
  cfg.batch_size = 32;
  cfg.lr = 3e-3f;
  const std::vector<int> tasks = {0, 1, 2, 3, 4, 5};
  harness::RunResult stl = harness::StlBaseline(dataset, tasks, factory, cfg);
  std::vector<harness::LabeledRun> runs;
  for (const std::string& m : {std::string("ew"), std::string("mocograd")}) {
    runs.push_back({m, harness::RunMethod(dataset, tasks, m, factory, cfg)});
  }
  const std::string csv_path = "/tmp/mocograd_qm9_results.csv";
  MG_CHECK(harness::WriteCsvReport(runs, csv_path, &stl).ok());
  std::printf("wrote %s (one row per method/task/metric + delta_m)\n",
              csv_path.c_str());
  return 0;
}
