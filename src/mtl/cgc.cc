#include "mtl/cgc.h"

#include <memory>
#include <string>

#include "autograd/ops.h"

namespace mocograd {
namespace mtl {

namespace ag = autograd;

CgcModel::CgcModel(const CgcConfig& config, Rng& rng) {
  MG_CHECK_GT(config.input_dim, 0);
  MG_CHECK_GT(config.num_shared_experts, 0);
  MG_CHECK_GE(config.num_task_experts, 0);
  MG_CHECK(!config.expert_dims.empty());
  const int k = static_cast<int>(config.task_output_dims.size());
  MG_CHECK_GT(k, 0);

  std::vector<int64_t> expert_dims = {config.input_dim};
  expert_dims.insert(expert_dims.end(), config.expert_dims.begin(),
                     config.expert_dims.end());
  for (int e = 0; e < config.num_shared_experts; ++e) {
    shared_experts_.push_back(RegisterModule(
        "shared_expert" + std::to_string(e),
        std::make_unique<nn::Mlp>(expert_dims, rng)));
  }
  task_experts_.resize(k);
  const int gate_width = config.num_shared_experts + config.num_task_experts;
  const int64_t feat = config.expert_dims.back();
  for (int t = 0; t < k; ++t) {
    for (int e = 0; e < config.num_task_experts; ++e) {
      task_experts_[t].push_back(RegisterModule(
          "task" + std::to_string(t) + "_expert" + std::to_string(e),
          std::make_unique<nn::Mlp>(expert_dims, rng)));
    }
    gates_.push_back(RegisterModule(
        "gate" + std::to_string(t),
        std::make_unique<nn::Linear>(config.input_dim, gate_width, rng)));
    std::vector<int64_t> head_dims = {feat};
    head_dims.insert(head_dims.end(), config.head_hidden.begin(),
                     config.head_hidden.end());
    head_dims.push_back(config.task_output_dims[t]);
    heads_.push_back(RegisterModule("head" + std::to_string(t),
                                    std::make_unique<nn::Mlp>(head_dims, rng)));
  }
}

std::vector<Variable> CgcModel::Forward(const std::vector<Variable>& inputs) {
  MG_CHECK_EQ(static_cast<int>(inputs.size()), num_tasks());
  return ForwardTasksConcurrently(num_tasks(), [&](int t) {
    const Variable& x = inputs[t];
    Variable gate = ag::SoftmaxRows(gates_[t]->Forward(x));
    Variable fused;
    int64_t slot = 0;
    auto mix_in = [&](nn::Mlp* expert) {
      Variable z = ag::Relu(expert->Forward(x));
      Variable w = ag::SliceCols(gate, slot++, 1);
      Variable contrib = ag::Mul(z, w);
      fused = fused.defined() ? ag::Add(fused, contrib) : contrib;
    };
    for (nn::Mlp* e : shared_experts_) mix_in(e);
    for (nn::Mlp* e : task_experts_[t]) mix_in(e);
    return heads_[t]->Forward(fused);
  });
}

std::vector<Variable*> CgcModel::SharedParameters() {
  std::vector<Variable*> out;
  for (nn::Mlp* e : shared_experts_) {
    auto p = e->Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<Variable*> CgcModel::TaskParameters(int k) {
  MG_CHECK_GE(k, 0);
  MG_CHECK_LT(k, num_tasks());
  std::vector<Variable*> out;
  for (nn::Mlp* e : task_experts_[k]) {
    auto p = e->Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  auto g = gates_[k]->Parameters();
  out.insert(out.end(), g.begin(), g.end());
  auto h = heads_[k]->Parameters();
  out.insert(out.end(), h.begin(), h.end());
  return out;
}

}  // namespace mtl
}  // namespace mocograd
