#include "workload.h"

#include <cstring>

#include "base/check.h"
#include "core/mocograd.h"
#include "mtl/hps.h"
#include "mtl/mmoe.h"

namespace mocograd {
namespace bench {

const std::vector<Workload>& Workloads() {
  // Why each exists is printed with the results and kept in BENCHMARK.json.
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {.name = "rec",
       .why = "MovieLens MMoE, 9 tasks: tiny GEMMs, so building the tape "
              "and the backward sweeps dominate a training step and the "
              "batcher deadline dominates serving latency",
       .num_tasks = 9,
       .latent_dim = 8,
       .architecture = "mmoe",
       .num_experts = 6,
       .dims = {64, 32},
       .warmup_steps = 10,
       .loss_steps = 60,
       .offered_qps = 4000.0},
      {.name = "many_tasks",
       .why = "32 tasks sharing a 140k-parameter trunk: the O(K^2 P) "
              "aggregation dominates a training step; light forward when "
              "served",
       .num_tasks = 32,
       .latent_dim = 8,
       .architecture = "hps",
       .dims = {512, 256},
       .warmup_steps = 2,
       .loss_steps = 6,
       .offered_qps = 2000.0},
      {.name = "wide",
       .why = "256-feature MMoE with a 3 MB weight arena, 4 tasks: the "
              "widest GEMMs in training, and the engine forward pass "
              "dominates serving latency",
       .num_tasks = 4,
       .latent_dim = 128,
       .architecture = "mmoe",
       .num_experts = 8,
       .dims = {256, 128},
       .warmup_steps = 2,
       .loss_steps = 20,
       .offered_qps = 1000.0},
  };
  return *workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Seeds::Seeds(uint64_t seed, int round) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + round * 0xbf58476d1ce4e5b9ull +
          0x6d7467ull);
  init = rng.NextUint64();
  data = rng.NextUint64();
  trainer = rng.NextUint64();
  rows = rng.NextUint64();
  arrivals = rng.NextUint64();
}

namespace {

mtl::MmoeConfig MmoeConfigFor(const Workload& w) {
  mtl::MmoeConfig cfg;
  cfg.input_dim = 2 * w.latent_dim;
  cfg.num_experts = w.num_experts;
  cfg.expert_dims = w.dims;
  cfg.task_output_dims = std::vector<int64_t>(w.num_tasks, 1);
  return cfg;
}

mtl::HpsConfig HpsConfigFor(const Workload& w) {
  mtl::HpsConfig cfg;
  cfg.input_dim = 2 * w.latent_dim;
  cfg.shared_dims = w.dims;
  cfg.task_output_dims = std::vector<int64_t>(w.num_tasks, 1);
  return cfg;
}

}  // namespace

Replica MakeReplica(const Workload& w, uint64_t init_seed) {
  Replica r;
  Rng rng(init_seed);
  if (w.architecture == "mmoe") {
    r.model = std::make_unique<mtl::MmoeModel>(MmoeConfigFor(w), rng);
  } else {
    MG_CHECK(w.architecture == "hps", "unknown architecture ",
             w.architecture);
    r.model = std::make_unique<mtl::HpsModel>(HpsConfigFor(w), rng);
  }
  r.aggregator = std::make_unique<core::MoCoGrad>();
  r.optimizer =
      std::make_unique<optim::Adam>(r.model->Parameters(), kLearningRate);
  return r;
}

std::vector<data::TaskKind> TaskKinds(const Workload& w) {
  return std::vector<data::TaskKind>(w.num_tasks,
                                     data::TaskKind::kRegression);
}

std::unique_ptr<mtl::MtlTrainer> MakeTrainer(const Workload& w, Replica* r,
                                             uint64_t trainer_seed) {
  auto trainer = std::make_unique<mtl::MtlTrainer>(
      r->model.get(), r->aggregator.get(), r->optimizer.get(), TaskKinds(w),
      trainer_seed);
  trainer->watchdog()->set_options(mtl::WatchdogOptions{});
  return trainer;
}

serve::ServePlan MakePlan(const Workload& w) {
  return w.architecture == "mmoe" ? serve::BuildMmoePlan(MmoeConfigFor(w))
                                  : serve::BuildHpsPlan(HpsConfigFor(w));
}

std::pair<int64_t, int64_t> WidestLayer(const serve::ServePlan& plan) {
  std::pair<int64_t, int64_t> best{0, 0};
  for (const serve::PlanOp& op : plan.ops) {
    if (op.kind != serve::PlanOp::Kind::kLinear) continue;
    const int64_t k = plan.buffer_widths[op.in];
    const int64_t n = plan.buffer_widths[op.out];
    if (k * n > best.first * best.second) best = {k, n};
  }
  return best;
}

std::vector<float*> TaskOutputs(const serve::ServeModel& sm, float* base,
                                int64_t rows) {
  std::vector<float*> out;
  for (int k = 0; k < sm.num_tasks(); ++k) {
    out.push_back(base);
    base += rows * sm.task_output_dim(k);
  }
  return out;
}

bool SameParameters(mtl::MtlModel& a, mtl::MtlModel& b) {
  const std::vector<autograd::Variable*> pa = a.Parameters();
  const std::vector<autograd::Variable*> pb = b.Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const Tensor& x = pa[i]->value();
    const Tensor& y = pb[i]->value();
    if (x.NumElements() != y.NumElements() ||
        std::memcmp(x.data(), y.data(), x.NumElements() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<Setup> BuildSetup(const Workload& w, const Seeds& seeds) {
  auto s = std::make_unique<Setup>();
  data::MovieLensConfig data_cfg;
  data_cfg.num_genres = w.num_tasks;
  data_cfg.latent_dim = w.latent_dim;
  s->dataset = std::make_unique<data::MovieLensSim>(data_cfg);

  s->replica = MakeReplica(w, seeds.init);
  s->trainer = MakeTrainer(w, &s->replica, seeds.trainer);

  s->serve_model = std::make_unique<serve::ServeModel>(
      serve::ServeModel::FromModule(MakePlan(w), *s->replica.model,
                                    serve::ServePrecision::kFp32)
          .value());
  const serve::ServeModel& sm = *s->serve_model;
  for (int k = 0; k < sm.num_tasks(); ++k) {
    s->out_width += sm.task_output_dim(k);
  }

  const int64_t in = sm.input_dim();
  Rng rng(seeds.rows);
  s->rows.resize(static_cast<size_t>(kServeRows) * in);
  for (float& v : s->rows) v = rng.Uniform(-1.0f, 1.0f);

  // Single-row references: what every served row must equal bitwise.
  serve::InferenceSession session(sm);
  s->refs.resize(static_cast<size_t>(kServeRows) * s->out_width);
  for (int64_t r = 0; r < kServeRows; ++r) {
    const std::vector<float*> out =
        TaskOutputs(sm, s->refs.data() + r * s->out_width, 1);
    session.Forward(s->rows.data() + r * in, 1, out.data());
  }
  return s;
}

}  // namespace bench
}  // namespace mocograd
