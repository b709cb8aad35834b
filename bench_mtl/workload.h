#ifndef MOCOGRAD_BENCH_MTL_WORKLOAD_H_
#define MOCOGRAD_BENCH_MTL_WORKLOAD_H_

// The benchmark's workloads and the objects a run builds before it
// measures. Every setting is fixed here: pool sizes, batcher options and
// precision are constants, and nothing is read from MOCOGRAD_* knobs.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregator.h"
#include "data/movielens.h"
#include "mtl/model.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"
#include "serve/engine.h"
#include "serve/plan.h"

namespace mocograd {
namespace bench {

/// One workload: a multi-task model on the MovieLens simulator that a run
/// both trains (mocograd aggregation, Adam) and serves (a frozen snapshot
/// behind the micro-batcher).
struct Workload {
  std::string name;
  std::string why;
  int num_tasks = 0;          // genre tasks K
  int latent_dim = 0;         // request/feature width is 2 * latent_dim
  std::string architecture;   // "mmoe" | "hps"
  int num_experts = 0;        // mmoe only
  std::vector<int64_t> dims;  // expert (mmoe) or trunk (hps) widths
  int warmup_steps = 0;
  /// final_loss is the mean task loss on the test split after this many
  /// timed steps, so it does not depend on how many steps fit in the run.
  int loss_steps = 0;
  double offered_qps = 0.0;   // open-loop Poisson arrival rate
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

constexpr int kBatchSize = 64;
constexpr float kLearningRate = 3e-3f;
constexpr int kTrainThreads = 4;
constexpr int kServeThreads = 1;
constexpr int kMaxBatch = 32;
constexpr int kDeadlineUs = 200;
constexpr int kServeRows = 256;

/// Independent input streams of one round, derived from the run's --seed.
struct Seeds {
  Seeds(uint64_t seed, int round);
  uint64_t init;      // model initialization
  uint64_t data;      // mini-batch sampling
  uint64_t trainer;   // the aggregator's task-order shuffles
  uint64_t rows;      // serving request features
  uint64_t arrivals;  // the open-loop Poisson schedule
};

/// A model with its own aggregator and optimizer state. Replicas made from
/// the same seed are bitwise identical and stay so under identical steps.
struct Replica {
  std::unique_ptr<mtl::MtlModel> model;
  std::unique_ptr<core::GradientAggregator> aggregator;
  std::unique_ptr<optim::Adam> optimizer;
};

Replica MakeReplica(const Workload& w, uint64_t init_seed);
std::unique_ptr<mtl::MtlTrainer> MakeTrainer(const Workload& w, Replica* r,
                                             uint64_t trainer_seed);
std::vector<data::TaskKind> TaskKinds(const Workload& w);
serve::ServePlan MakePlan(const Workload& w);

/// {in, out} widths of the plan's linear layer with the most multiply-adds
/// (the training model runs the same layer shapes).
std::pair<int64_t, int64_t> WidestLayer(const serve::ServePlan& plan);

/// Per-task output pointers into `base` in InferenceSession::Forward's
/// layout: task k's `rows` x task_output_dim(k) block follows task k-1's.
std::vector<float*> TaskOutputs(const serve::ServeModel& sm, float* base,
                                int64_t rows);

/// True when every parameter of `a` equals the matching one of `b` bitwise.
bool SameParameters(mtl::MtlModel& a, mtl::MtlModel& b);

/// What a run builds before measuring: the dataset, the model under
/// training, a serving snapshot of it, the request rows and each row's
/// single-row reference output.
struct Setup {
  std::unique_ptr<data::MovieLensSim> dataset;
  Replica replica;
  std::unique_ptr<mtl::MtlTrainer> trainer;
  std::unique_ptr<serve::ServeModel> serve_model;
  int64_t out_width = 0;    // floats per served row, all tasks
  std::vector<float> rows;  // kServeRows x input_dim
  std::vector<float> refs;  // kServeRows x out_width
};

std::unique_ptr<Setup> BuildSetup(const Workload& w, const Seeds& seeds);

}  // namespace bench
}  // namespace mocograd

#endif  // MOCOGRAD_BENCH_MTL_WORKLOAD_H_
