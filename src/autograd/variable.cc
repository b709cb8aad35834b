#include "autograd/variable.h"

#include <utility>

#include "autograd/executor.h"
#include "base/check.h"

namespace mocograd {
namespace autograd {

Variable::Variable(Tensor value, bool requires_grad) {
  MG_CHECK(value.defined(), "Variable from undefined tensor");
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Variable Variable::MakeOp(
    const char* op, Tensor value, std::vector<Variable> parents,
    std::function<std::vector<Tensor>(const Tensor&)> grad_fn) {
  Variable v;
  v.node_ = std::make_shared<Node>();
  v.node_->value = std::move(value);
  v.node_->op = op;
  bool needs_grad = false;
  for (const Variable& p : parents) {
    MG_CHECK(p.defined(), "undefined parent in op ", op);
    needs_grad = needs_grad || p.requires_grad();
  }
  v.node_->requires_grad = needs_grad;
  // A node that needs no gradient is never entered by a sweep, so neither
  // its parents nor its grad_fn (and the tensors it captured) are kept: a
  // gradient-free forward frees each intermediate as soon as its last
  // consumer has run instead of holding the whole tape.
  if (needs_grad) {
    v.node_->parents.reserve(parents.size());
    for (const Variable& p : parents) v.node_->parents.push_back(p.node_);
    v.node_->grad_fn = std::move(grad_fn);
  }
  return v;
}

const Tensor& Variable::value() const {
  MG_CHECK(defined(), "value() on undefined Variable");
  return node_->value;
}

Tensor& Variable::mutable_value() {
  MG_CHECK(defined(), "mutable_value() on undefined Variable");
  return node_->value;
}

bool Variable::requires_grad() const {
  MG_CHECK(defined());
  return node_->requires_grad;
}

const Tensor& Variable::grad() const {
  MG_CHECK(defined());
  MG_CHECK(node_->grad.defined(), "grad() before any Backward touched node");
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->grad.defined(); }

Tensor& Variable::mutable_grad() {
  MG_CHECK(defined());
  if (!node_->grad.defined()) node_->grad = Tensor::Zeros(value().shape());
  return node_->grad;
}

void Variable::ZeroGrad() {
  MG_CHECK(defined());
  if (node_->grad.defined()) node_->grad.Fill(0.0f);
}

void Variable::Backward() const {
  Backward(Tensor::Ones(value().shape()));
}

// The sweeps themselves live in autograd/executor.cc: the dependency-
// counted ready-queue engine, bit-identical to a linear tape replay — see
// docs/AUTOGRAD.md.

void Variable::Backward(const Tensor& seed) const {
  if (NeedsSweep(seed)) RunBackward(node_.get(), seed, /*sink=*/nullptr);
}

void Variable::BackwardInto(const LeafGrads& leaves) const {
  const Tensor seed = Tensor::Ones(value().shape());
  if (NeedsSweep(seed)) RunBackward(node_.get(), seed, leaves);
}

void Variable::BackwardInto(GradSink* sink) const {
  BackwardInto(Tensor::Ones(value().shape()), sink);
}

void Variable::BackwardInto(const Tensor& seed, GradSink* sink) const {
  MG_CHECK(sink != nullptr, "BackwardInto requires a sink");
  if (NeedsSweep(seed)) RunBackward(node_.get(), seed, sink);
}

bool Variable::NeedsSweep(const Tensor& seed) const {
  MG_CHECK(defined(), "Backward on undefined Variable");
  MG_CHECK(seed.shape() == value().shape(), "Backward seed shape ",
           seed.shape().ToString(), " vs value ", value().shape().ToString());
  return node_->requires_grad;
}

NoGradScope::NoGradScope(std::vector<Variable*> leaves)
    : leaves_(std::move(leaves)) {
  saved_.reserve(leaves_.size());
  for (Variable* v : leaves_) {
    MG_CHECK(v != nullptr && v->defined(), "NoGradScope over undefined leaf");
    MG_CHECK(!v->node()->grad_fn, "NoGradScope over interior node ",
             v->node()->op);
    saved_.push_back(v->node()->requires_grad);
    v->node()->requires_grad = false;
  }
}

NoGradScope::~NoGradScope() {
  // Reverse order, so a leaf listed twice gets its original flag back.
  for (size_t i = leaves_.size(); i-- > 0;) {
    leaves_[i]->node()->requires_grad = saved_[i];
  }
}

}  // namespace autograd
}  // namespace mocograd
