#ifndef MOCOGRAD_TESTS_TESTING_MTL_CASES_H_
#define MOCOGRAD_TESTS_TESTING_MTL_CASES_H_

// Small instances of every MtlModel architecture with random regression
// batches, shared by the trainer and parallel-determinism tests.

#include <memory>
#include <vector>

#include "base/rng.h"
#include "data/batch.h"
#include "mtl/cgc.h"
#include "mtl/cross_stitch.h"
#include "mtl/embedding_hps.h"
#include "mtl/hps.h"
#include "mtl/mmoe.h"
#include "mtl/mtan.h"
#include "mtl/scene_model.h"

namespace mocograd {
namespace testing {

enum class MtlArch {
  kHps,
  kMmoe,
  kCgc,
  kEmbeddingHps,
  kCrossStitch,
  kMtan,
  kScene,
};

inline const char* MtlArchName(MtlArch arch) {
  switch (arch) {
    case MtlArch::kHps: return "hps";
    case MtlArch::kMmoe: return "mmoe";
    case MtlArch::kCgc: return "cgc";
    case MtlArch::kEmbeddingHps: return "embedding_hps";
    case MtlArch::kCrossStitch: return "cross_stitch";
    case MtlArch::kMtan: return "mtan";
    case MtlArch::kScene: return "scene";
  }
  return "?";
}

inline std::vector<MtlArch> AllMtlArchs() {
  return {MtlArch::kHps,         MtlArch::kMmoe, MtlArch::kCgc,
          MtlArch::kEmbeddingHps, MtlArch::kCrossStitch, MtlArch::kMtan,
          MtlArch::kScene};
}

/// The four architectures whose Forward builds the per-task tapes
/// concurrently (mtl::ForwardTasksConcurrently).
inline std::vector<MtlArch> TaskSeparableMtlArchs() {
  return {MtlArch::kHps, MtlArch::kMmoe, MtlArch::kCgc,
          MtlArch::kEmbeddingHps};
}

struct MtlCase {
  std::unique_ptr<mtl::MtlModel> model;
  /// One regression batch per task. With `distinct_inputs` false every
  /// batch carries the same `x` tensor (the single-input setting).
  std::vector<data::Batch> batches;
  std::vector<data::TaskKind> kinds;
};

/// Builds `arch` with `num_tasks` tasks (output width 1 + t % 2) and one
/// batch of `rows` rows per task, everything drawn from `seed`.
inline MtlCase MakeMtlCase(MtlArch arch, uint64_t seed, int num_tasks,
                           bool distinct_inputs, int64_t rows = 32) {
  Rng rng(seed);
  std::vector<int64_t> outs;
  for (int t = 0; t < num_tasks; ++t) outs.push_back(1 + t % 2);
  const int64_t in = 24;
  MtlCase c;
  // Draws one input batch; categorical columns for EmbeddingHps.
  auto draw_x = [&]() -> Tensor {
    if (arch == MtlArch::kScene) {
      return Tensor::Randn({rows / 8, 3, 6, 6}, rng);
    }
    if (arch != MtlArch::kEmbeddingHps) return Tensor::Randn({rows, in}, rng);
    Tensor x = Tensor::Randn({rows, in + 2}, rng);
    for (int64_t i = 0; i < rows; ++i) {
      float* ids = x.data() + i * (in + 2) + in;
      ids[0] = static_cast<float>(rng.UniformInt(0, 7));
      ids[1] = static_cast<float>(rng.UniformInt(0, 5));
    }
    return x;
  };
  switch (arch) {
    case MtlArch::kHps: {
      mtl::HpsConfig cfg;
      cfg.input_dim = in;
      cfg.shared_dims = {48, 32};
      cfg.head_hidden = {16};
      cfg.task_output_dims = outs;
      c.model = std::make_unique<mtl::HpsModel>(cfg, rng);
      break;
    }
    case MtlArch::kMmoe: {
      mtl::MmoeConfig cfg;
      cfg.input_dim = in;
      cfg.num_experts = 3;
      cfg.expert_dims = {40, 24};
      cfg.task_output_dims = outs;
      c.model = std::make_unique<mtl::MmoeModel>(cfg, rng);
      break;
    }
    case MtlArch::kCgc: {
      mtl::CgcConfig cfg;
      cfg.input_dim = in;
      cfg.num_shared_experts = 2;
      cfg.num_task_experts = 1;
      cfg.expert_dims = {40, 24};
      cfg.task_output_dims = outs;
      c.model = std::make_unique<mtl::CgcModel>(cfg, rng);
      break;
    }
    case MtlArch::kEmbeddingHps: {
      mtl::EmbeddingHpsConfig cfg;
      cfg.dense_dim = in;
      cfg.cat_specs = {{7, 4}, {5, 3}};
      cfg.shared_dims = {48, 32};
      cfg.task_output_dims = outs;
      c.model = std::make_unique<mtl::EmbeddingHpsModel>(cfg, rng);
      break;
    }
    case MtlArch::kCrossStitch: {
      mtl::CrossStitchConfig cfg;
      cfg.input_dim = in;
      cfg.tower_dims = {32, 24};
      cfg.task_output_dims = outs;
      c.model = std::make_unique<mtl::CrossStitchModel>(cfg, rng);
      break;
    }
    case MtlArch::kMtan: {
      mtl::MtanConfig cfg;
      cfg.input_dim = in;
      cfg.shared_dims = {48, 32};
      cfg.task_output_dims = outs;
      c.model = std::make_unique<mtl::MtanModel>(cfg, rng);
      break;
    }
    case MtlArch::kScene: {
      mtl::SceneConvConfig cfg;
      cfg.in_channels = 3;
      cfg.width = 8;
      cfg.num_encoder_layers = 2;
      cfg.task_out_channels = outs;
      c.model = std::make_unique<mtl::SceneConvModel>(cfg, rng);
      break;
    }
  }
  const Tensor shared_x = draw_x();
  for (int t = 0; t < num_tasks; ++t) {
    const Tensor x = distinct_inputs ? draw_x() : shared_x;
    const Shape y_shape = arch == MtlArch::kScene
                              ? Shape{x.Dim(0), outs[t], x.Dim(2), x.Dim(3)}
                              : Shape{rows, outs[t]};
    c.batches.push_back(
        data::Batch{.x = x, .y = Tensor::Randn(y_shape, rng), .labels = {}});
    c.kinds.push_back(arch == MtlArch::kScene
                          ? data::TaskKind::kPixelRegression
                          : data::TaskKind::kRegression);
  }
  return c;
}

}  // namespace testing
}  // namespace mocograd

#endif  // MOCOGRAD_TESTS_TESTING_MTL_CASES_H_
