// Backward-executor benchmark: times the dependency-counted ready-queue
// engine of autograd/executor.cc against the sequential tape replay it
// generalizes, on (a) one raw sweep over an MLP-shaped tape and (b) full
// trainer steps where K per-task sweeps run concurrently over a shared
// trunk — the workload the executor exists for.
//
// Methodology: every (workload, executor, threads) cell runs kTrials
// independent trials of several steps/sweeps each and reports the best
// trial mean. The box this runs on hosts noisy neighbors; best-of-N
// recovers the engine's actual cost rather than the scheduler's mood.
//
// Caveat for readers of the numbers: on a single-core host (nproc = 1)
// multi-thread columns cannot show wall-clock speedup. What they show there
// is the executor's scheduling overhead — how much the ready-queue machinery
// (graph pass, slot allocation, queue traffic) costs relative to the linear
// replay when the pool is real but the hardware parallelism is not. On a
// multi-core host the same columns measure scaling. The JSON records nproc,
// and carries a "note" saying so only when the measured nproc is 1.
//
// Writes BENCH_backward.json (or argv[1]) with ms-per-iteration for
//   seq    — MOCOGRAD_AUTOGRAD_EXEC=seq, the linear tape replay,
//   ready  — the default dependency-counted ready-queue engine,
// at pool sizes {1, 2, 4}, plus the trainer workload's per-phase
// breakdown (forward / backward / flatten) per cell.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "autograd/executor.h"
#include "autograd/ops.h"
#include "base/rng.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "bench_common.h"
#include "core/registry.h"
#include "mtl/hps.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"

namespace mocograd {
namespace {

namespace ag = autograd;
using autograd::BackwardExecutor;
using autograd::Variable;

constexpr int kTrials = 5;
const int kThreadCounts[] = {1, 2, 4};

const char* ExecName(BackwardExecutor e) {
  return e == BackwardExecutor::kSequential ? "seq" : "ready";
}

// Best-of-kTrials mean milliseconds for `reps` calls of `run` per trial.
template <typename Fn>
double BestMsPerIter(int reps, Fn run) {
  return bench::BestSecondsPerRep(kTrials, reps, run) * 1e3;
}

// --- Workload A: one raw sweep over an MLP-shaped tape ---------------------
// Diamond-free depth with interior fan-out (the trunk feeds a head and a
// regularizer), so the ready queue has real branch-level parallelism to
// exploit and real slot-merge work to pay for.
struct RawSweepResult {
  double ms = 0.0;
};

RawSweepResult RunRawSweep(BackwardExecutor exec, int threads) {
  autograd::SetBackwardExecutor(exec);
  ThreadPool::SetGlobalNumThreads(threads);
  Rng rng(0xbacc);
  Variable w1(Tensor::Randn({128, 256}, rng), /*requires_grad=*/true);
  Variable w2(Tensor::Randn({256, 128}, rng), /*requires_grad=*/true);
  Variable w3(Tensor::Randn({128, 8}, rng), /*requires_grad=*/true);
  Variable x(Tensor::Randn({64, 128}, rng), /*requires_grad=*/false);
  Variable h1 = ag::Tanh(ag::MatMul(x, w1));
  Variable h2 = ag::Sigmoid(ag::MatMul(h1, w2));
  Variable out = ag::MatMul(h2, w3);
  Variable loss = ag::Add(ag::MseLoss(out, Tensor::Zeros(out.shape())),
                          ag::SumAll(ag::Mul(h2, h2)));

  RawSweepResult r;
  r.ms = BestMsPerIter(20, [&] {
    Variable::GradSink sink;
    loss.BackwardInto(&sink);
  });
  return r;
}

// --- Workload B: full trainer steps, K concurrent per-task sweeps ----------
struct TrainerResult {
  double step_ms = 0.0;
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  double flatten_ms = 0.0;
};

TrainerResult RunTrainerSteps(BackwardExecutor exec, int threads) {
  autograd::SetBackwardExecutor(exec);
  ThreadPool::SetGlobalNumThreads(threads);
  constexpr int kTasks = 4;
  Rng rng(0x57e9);
  mtl::HpsConfig cfg;
  cfg.input_dim = 64;
  cfg.shared_dims = {256, 128};
  cfg.task_output_dims = std::vector<int64_t>(kTasks, 1);
  mtl::HpsModel model(cfg, rng);

  Tensor x = Tensor::Randn({64, 64}, rng);
  std::vector<data::Batch> batches;
  for (int t = 0; t < kTasks; ++t) {
    batches.push_back(data::Batch{
        .x = x, .y = Tensor::Randn({64, 1}, rng), .labels = {}});
  }
  auto aggregator = core::MakeAggregator("mocograd").value();
  optim::Adam opt(model.Parameters(), 1e-3f);
  mtl::MtlTrainer trainer(
      &model, aggregator.get(), &opt,
      std::vector<data::TaskKind>(kTasks, data::TaskKind::kRegression),
      /*seed=*/11);
  trainer.set_conflict_stats_enabled(false);

  TrainerResult best;
  trainer.Step(batches);  // warm up
  for (int t = 0; t < kTrials; ++t) {
    constexpr int kSteps = 10;
    TrainerResult trial;
    Stopwatch sw;
    for (int s = 0; s < kSteps; ++s) {
      mtl::StepStats stats = trainer.Step(batches);
      trial.fwd_ms += stats.phase.forward * 1e3;
      trial.bwd_ms += stats.phase.backward * 1e3;
      trial.flatten_ms += stats.phase.flatten * 1e3;
    }
    trial.step_ms = sw.ElapsedSeconds() * 1e3 / kSteps;
    trial.fwd_ms /= kSteps;
    trial.bwd_ms /= kSteps;
    trial.flatten_ms /= kSteps;
    if (t == 0 || trial.step_ms < best.step_ms) best = trial;
  }
  return best;
}

}  // namespace

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_backward.json";
  const unsigned nproc = std::thread::hardware_concurrency();

  std::string json = "{\n  \"nproc\": ";
  json += std::to_string(nproc);
  json += ",\n  \"trials\": ";
  json += std::to_string(kTrials);
  std::printf("host has %u hardware thread(s)\n", nproc);
  if (nproc == 1) {
    json +=
        ",\n  \"note\": \"single-core host: multi-thread columns measure "
        "executor scheduling overhead, not wall-clock scaling\"";
    std::printf("multi-thread columns on a 1-core host measure scheduling "
                "overhead, not scaling.\n");
  }
  std::printf("\n");
  json += ",\n  \"cells\": [\n";
  std::printf("%-14s %-6s %8s %10s %8s %8s %10s\n", "workload", "exec",
              "threads", "step_ms", "fwd_ms", "bwd_ms", "flatten_ms");

  bool first = true;
  for (BackwardExecutor exec :
       {BackwardExecutor::kSequential, BackwardExecutor::kReadyQueue}) {
    for (int threads : kThreadCounts) {
      const RawSweepResult raw = RunRawSweep(exec, threads);
      const TrainerResult tr = RunTrainerSteps(exec, threads);
      std::printf("%-14s %-6s %8d %10.3f %8s %8s %10s\n", "raw_sweep",
                  ExecName(exec), threads, raw.ms, "-", "-", "-");
      std::printf("%-14s %-6s %8d %10.3f %8.3f %8.3f %10.3f\n",
                  "trainer_step", ExecName(exec), threads, tr.step_ms,
                  tr.fwd_ms, tr.bwd_ms, tr.flatten_ms);

      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"workload\": \"raw_sweep\", \"exec\": \"%s\", "
                    "\"threads\": %d, \"sweep_ms\": %.4f},\n"
                    "    {\"workload\": \"trainer_step\", \"exec\": \"%s\", "
                    "\"threads\": %d, \"step_ms\": %.4f, \"fwd_ms\": %.4f, "
                    "\"bwd_ms\": %.4f, \"flatten_ms\": %.4f}",
                    ExecName(exec), threads, raw.ms, ExecName(exec), threads,
                    tr.step_ms, tr.fwd_ms, tr.bwd_ms, tr.flatten_ms);
      if (!first) json += ",\n";
      json += "    ";
      json += buf;
      first = false;
    }
  }
  json += "\n  ]\n}\n";

  autograd::SetBackwardExecutor(BackwardExecutor::kReadyQueue);
  ThreadPool::SetGlobalNumThreads(1);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace mocograd

int main(int argc, char** argv) { return mocograd::Main(argc, argv); }
