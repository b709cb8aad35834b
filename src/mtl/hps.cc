#include "mtl/hps.h"

#include <memory>
#include <string>

#include "autograd/ops.h"

namespace mocograd {
namespace mtl {

HpsModel::HpsModel(const HpsConfig& config, Rng& rng) {
  MG_CHECK_GT(config.input_dim, 0);
  MG_CHECK(!config.shared_dims.empty(), "HPS needs a trunk");
  MG_CHECK(!config.task_output_dims.empty(), "HPS needs at least one task");

  std::vector<int64_t> trunk_dims = {config.input_dim};
  trunk_dims.insert(trunk_dims.end(), config.shared_dims.begin(),
                    config.shared_dims.end());
  trunk_ = RegisterModule("trunk", std::make_unique<nn::Mlp>(trunk_dims, rng));

  const int64_t feat = config.shared_dims.back();
  for (size_t k = 0; k < config.task_output_dims.size(); ++k) {
    std::vector<int64_t> head_dims = {feat};
    head_dims.insert(head_dims.end(), config.head_hidden.begin(),
                     config.head_hidden.end());
    head_dims.push_back(config.task_output_dims[k]);
    heads_.push_back(RegisterModule("head" + std::to_string(k),
                                    std::make_unique<nn::Mlp>(head_dims, rng)));
  }
}

std::vector<Variable> HpsModel::Forward(const std::vector<Variable>& inputs) {
  MG_CHECK_EQ(static_cast<int>(inputs.size()), num_tasks());
  // Multi-input MTL: each task may carry its own batch, so the trunk runs
  // per task; single-input callers pass the same Variable and pay one extra
  // forward per task (matching how LibMTL handles the multi-input setting).
  return ForwardTasksConcurrently(num_tasks(), [&](int k) {
    Variable z = autograd::Relu(trunk_->Forward(inputs[k]));
    return heads_[k]->Forward(z);
  });
}

std::vector<Variable*> HpsModel::SharedParameters() {
  return trunk_->Parameters();
}

std::vector<Variable*> HpsModel::TaskParameters(int k) {
  MG_CHECK_GE(k, 0);
  MG_CHECK_LT(k, num_tasks());
  return heads_[k]->Parameters();
}

}  // namespace mtl
}  // namespace mocograd
