#include "mtl/mmoe.h"

#include <memory>
#include <string>

#include "autograd/ops.h"

namespace mocograd {
namespace mtl {

namespace ag = autograd;

MmoeModel::MmoeModel(const MmoeConfig& config, Rng& rng) {
  MG_CHECK_GT(config.input_dim, 0);
  MG_CHECK_GT(config.num_experts, 0);
  MG_CHECK(!config.expert_dims.empty());
  MG_CHECK(!config.task_output_dims.empty());

  std::vector<int64_t> expert_dims = {config.input_dim};
  expert_dims.insert(expert_dims.end(), config.expert_dims.begin(),
                     config.expert_dims.end());
  for (int e = 0; e < config.num_experts; ++e) {
    experts_.push_back(RegisterModule(
        "expert" + std::to_string(e),
        std::make_unique<nn::Mlp>(expert_dims, rng)));
  }
  const int64_t feat = config.expert_dims.back();
  for (size_t k = 0; k < config.task_output_dims.size(); ++k) {
    gates_.push_back(RegisterModule(
        "gate" + std::to_string(k),
        std::make_unique<nn::Linear>(config.input_dim, config.num_experts,
                                     rng)));
    std::vector<int64_t> head_dims = {feat};
    head_dims.insert(head_dims.end(), config.head_hidden.begin(),
                     config.head_hidden.end());
    head_dims.push_back(config.task_output_dims[k]);
    heads_.push_back(RegisterModule("head" + std::to_string(k),
                                    std::make_unique<nn::Mlp>(head_dims, rng)));
  }
}

std::vector<Variable> MmoeModel::Forward(
    const std::vector<Variable>& inputs) {
  MG_CHECK_EQ(static_cast<int>(inputs.size()), num_tasks());
  return ForwardTasksConcurrently(num_tasks(), [&](int k) {
    const Variable& x = inputs[k];
    // Gate weights over the experts for this task.
    Variable gate = ag::SoftmaxRows(gates_[k]->Forward(x));  // [n, E]
    Variable fused;
    for (size_t e = 0; e < experts_.size(); ++e) {
      Variable ze = ag::Relu(experts_[e]->Forward(x));  // [n, feat]
      Variable we = ag::SliceCols(gate, static_cast<int64_t>(e), 1);  // [n,1]
      Variable contrib = ag::Mul(ze, we);
      fused = fused.defined() ? ag::Add(fused, contrib) : contrib;
    }
    return heads_[k]->Forward(fused);
  });
}

std::vector<Variable*> MmoeModel::SharedParameters() {
  std::vector<Variable*> out;
  for (nn::Mlp* e : experts_) {
    auto p = e->Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<Variable*> MmoeModel::TaskParameters(int k) {
  MG_CHECK_GE(k, 0);
  MG_CHECK_LT(k, num_tasks());
  std::vector<Variable*> out = gates_[k]->Parameters();
  auto h = heads_[k]->Parameters();
  out.insert(out.end(), h.begin(), h.end());
  return out;
}

}  // namespace mtl
}  // namespace mocograd
