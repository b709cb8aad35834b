#include "optim/optimizer.h"

#include <cmath>

#include "base/check.h"
#include "base/vec_ops.h"

namespace mocograd {
namespace optim {

// The per-tensor update spans (vec::SgdMomentum / SgdPlain / Adam /
// Adagrad) live in base/vec_kernels_impl.h, compiled once per kernel tier
// and routed through the runtime ISA dispatch; updates stay bit-identical
// across tiers, whatever the MOCOGRAD_SIMD_ISA ceiling.

Optimizer::Optimizer(std::vector<Variable*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  for (Variable* p : params_) {
    MG_CHECK(p != nullptr && p->defined(), "null parameter in optimizer");
    MG_CHECK(p->requires_grad(), "optimizer over non-trainable parameter");
  }
}

void Optimizer::ZeroGrad() {
  for (Variable* p : params_) p->ZeroGrad();
}

Sgd::Sgd(std::vector<Variable*> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params), lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.resize(params_.size());
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable* p = params_[i];
    if (!p->has_grad()) continue;
    const Tensor& g = p->grad();
    Tensor& x = p->mutable_value();
    float* px = x.data();
    const float* pg = g.data();
    const int64_t n = x.NumElements();
    if (momentum_ > 0.0f) {
      if (!velocity_[i].defined()) velocity_[i] = Tensor::Zeros(x.shape());
      float* v = velocity_[i].data();
      vec::SgdMomentum(n, lr_, momentum_, weight_decay_, pg, v, px);
    } else {
      vec::SgdPlain(n, lr_, weight_decay_, pg, px);
    }
  }
}

Adam::Adam(std::vector<Variable*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable* p = params_[i];
    if (!p->has_grad()) continue;
    const Tensor& g = p->grad();
    Tensor& x = p->mutable_value();
    if (!m_[i].defined()) {
      m_[i] = Tensor::Zeros(x.shape());
      v_[i] = Tensor::Zeros(x.shape());
    }
    float* px = x.data();
    const float* pg = g.data();
    float* pm = m_[i].data();
    float* pv = v_[i].data();
    const int64_t n = x.NumElements();
    vec::Adam(n, lr_, beta1_, beta2_, eps_, weight_decay_, bc1, bc2, pg, pm,
              pv, px);
  }
}

Adagrad::Adagrad(std::vector<Variable*> params, float lr, float eps)
    : Optimizer(std::move(params), lr), eps_(eps) {
  accum_.resize(params_.size());
}

void Adagrad::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable* p = params_[i];
    if (!p->has_grad()) continue;
    const Tensor& g = p->grad();
    Tensor& x = p->mutable_value();
    if (!accum_[i].defined()) accum_[i] = Tensor::Zeros(x.shape());
    float* px = x.data();
    const float* pg = g.data();
    float* pa = accum_[i].data();
    const int64_t n = x.NumElements();
    vec::Adagrad(n, lr_, eps_, pg, pa, px);
  }
}

}  // namespace optim
}  // namespace mocograd
