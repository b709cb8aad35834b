#include "mtl/embedding_hps.h"

#include <cmath>
#include <memory>
#include <string>

#include "autograd/ops.h"

namespace mocograd {
namespace mtl {

namespace ag = autograd;

EmbeddingHpsModel::EmbeddingHpsModel(const EmbeddingHpsConfig& config,
                                     Rng& rng)
    : config_(config) {
  MG_CHECK_GT(config.dense_dim, 0);
  MG_CHECK(!config.task_output_dims.empty());

  int64_t feat_in = config.dense_dim;
  for (size_t c = 0; c < config.cat_specs.size(); ++c) {
    const auto& spec = config.cat_specs[c];
    MG_CHECK_GT(spec.cardinality, 0);
    embeddings_.push_back(RegisterModule(
        "emb" + std::to_string(c),
        std::make_unique<nn::Embedding>(spec.cardinality, spec.embedding_dim,
                                        rng)));
    feat_in += spec.embedding_dim;
  }

  std::vector<int64_t> trunk_dims = {feat_in};
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

std::vector<Variable> EmbeddingHpsModel::Forward(
    const std::vector<Variable>& inputs) {
  MG_CHECK_EQ(static_cast<int>(inputs.size()), num_tasks());
  return ForwardTasksConcurrently(num_tasks(), [&](int k) {
    const Variable& x = inputs[k];
    const int64_t expected =
        config_.dense_dim + static_cast<int64_t>(config_.cat_specs.size());
    MG_CHECK_EQ(x.shape().Dim(1), expected, "EmbeddingHps input width");

    std::vector<Variable> parts;
    parts.push_back(ag::SliceCols(x, 0, config_.dense_dim));
    // Categorical ids ride in the input as float-encoded columns; they are
    // indices, so no gradient flows through them.
    const Tensor& xv = x.value();
    const int64_t n = xv.Dim(0);
    const int64_t w = xv.Dim(1);
    for (size_t c = 0; c < config_.cat_specs.size(); ++c) {
      std::vector<int64_t> ids(n);
      for (int64_t i = 0; i < n; ++i) {
        const float raw = xv.data()[i * w + config_.dense_dim + c];
        const int64_t id = static_cast<int64_t>(std::lround(raw));
        MG_CHECK_GE(id, 0, "categorical id must be non-negative");
        MG_CHECK_LT(id, config_.cat_specs[c].cardinality,
                    "categorical id out of range");
        ids[i] = id;
      }
      parts.push_back(embeddings_[c]->Forward(ids));
    }
    Variable z = ag::Relu(trunk_->Forward(ag::Concat(parts, 1)));
    return heads_[k]->Forward(z);
  });
}

std::vector<Variable*> EmbeddingHpsModel::SharedParameters() {
  std::vector<Variable*> out;
  for (nn::Embedding* e : embeddings_) {
    auto p = e->Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  auto t = trunk_->Parameters();
  out.insert(out.end(), t.begin(), t.end());
  return out;
}

std::vector<Variable*> EmbeddingHpsModel::TaskParameters(int k) {
  MG_CHECK_GE(k, 0);
  MG_CHECK_LT(k, num_tasks());
  return heads_[k]->Parameters();
}

}  // namespace mtl
}  // namespace mocograd
