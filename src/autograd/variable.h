#ifndef MOCOGRAD_AUTOGRAD_VARIABLE_H_
#define MOCOGRAD_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace mocograd {
namespace autograd {

/// One node of the dynamically built (define-by-run) computation tape.
struct Node {
  Tensor value;
  /// Gradient accumulator; lazily allocated on first write.
  Tensor grad;
  bool requires_grad = false;
  /// Op name for diagnostics ("leaf" for parameters/inputs).
  const char* op = "leaf";
  std::vector<std::shared_ptr<Node>> parents;
  /// Maps the upstream gradient to one gradient per parent (same order).
  /// Null for leaves.
  std::function<std::vector<Tensor>(const Tensor& grad_out)> grad_fn;
};

/// Handle to a tape node. Variables are cheap shared references: copying a
/// Variable aliases the same node (value and gradient), exactly like
/// torch.Tensor. Parameters are leaf Variables with requires_grad=true.
class Variable {
 public:
  Variable() = default;

  /// Leaf node wrapping `value`.
  explicit Variable(Tensor value, bool requires_grad = false);

  /// Interior node factory used by the op library. The node requires grad
  /// iff some parent does; only then does it keep `parents` and `grad_fn`
  /// (no sweep ever enters a node that needs no gradient). Writes nothing
  /// but the new node, so tapes may be built concurrently on pool workers.
  static Variable MakeOp(
      const char* op, Tensor value, std::vector<Variable> parents,
      std::function<std::vector<Tensor>(const Tensor&)> grad_fn);

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const;
  /// Mutable access to the stored value; only sensible on leaves (parameter
  /// updates) — mutating interior values invalidates the tape.
  Tensor& mutable_value();

  const Shape& shape() const { return value().shape(); }
  int64_t NumElements() const { return value().NumElements(); }

  bool requires_grad() const;

  /// Gradient accumulated by the last Backward(); MG_CHECK-fails when no
  /// gradient has been produced. Use has_grad() to probe.
  const Tensor& grad() const;
  bool has_grad() const;
  /// Gradient buffer, allocated (zero) on demand.
  Tensor& mutable_grad();

  /// Clears the accumulated gradient (keeps the buffer).
  void ZeroGrad();

  /// Reverse-mode sweep from this node, seeding with ones. Gradients
  /// accumulate (+=) into every reachable node with requires_grad, so
  /// calling Backward on several roots sums their contributions.
  void Backward() const;

  /// Reverse-mode sweep with an explicit seed of the same shape.
  void Backward(const Tensor& seed) const;

  /// Gradient destination for BackwardInto: one accumulator per reached
  /// leaf, keyed by tape node. Lookup-only — consumers find() by node and
  /// never iterate, so the hash order cannot leak into results.
  /// mg_analyze:allow(nondeterminism)
  using GradSink = std::unordered_map<const Node*, Tensor>;

  /// Reverse-mode sweep like Backward(), but leaf gradients accumulate into
  /// `*sink` (keyed by node) instead of the nodes' persistent grad buffers;
  /// the tape itself is never written. Because sweeps only read the tape,
  /// several BackwardInto calls over the *same* tape may run concurrently
  /// from different threads with distinct sinks — this is what the trainer's
  /// parallel per-task backward builds on. A sink's contents are
  /// bit-identical to what Backward() would have left in the leaves' grad
  /// buffers (from a zeroed state) on either executor: the default
  /// ready-queue engine runs independent tape branches concurrently but
  /// merges gradient contributions through fixed per-edge slots in the
  /// sequential engine's accumulation order (autograd/executor.h,
  /// docs/AUTOGRAD.md).
  void BackwardInto(GradSink* sink) const;
  void BackwardInto(const Tensor& seed, GradSink* sink) const;

  /// Underlying tape node (for the op library and tests).
  const std::shared_ptr<Node>& node() const { return node_; }

 private:
  /// Shared entry behind Backward/BackwardInto; sink == nullptr selects the
  /// persistent node->grad destination. Dispatches to the executor selected
  /// by MOCOGRAD_AUTOGRAD_EXEC (autograd/executor.h).
  void BackwardImpl(const Tensor& seed, GradSink* sink) const;

  std::shared_ptr<Node> node_;
};

/// Marks leaf Variables (typically a model's Parameters()) as not requiring
/// grad for the scope's lifetime and restores each flag on exit. Ops built
/// inside the scope from those leaves keep no parents and no grad_fn, so a
/// forward run in it builds no tape: every intermediate is freed once its
/// consumer has run. The flag lives in the leaf nodes rather than in a
/// thread_local mode, so it also reaches pool workers that build per-task
/// tapes concurrently. The leaves must not be used by another thread (or
/// by a Backward) while the scope is alive.
class NoGradScope {
 public:
  explicit NoGradScope(std::vector<Variable*> leaves);
  ~NoGradScope();

  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  std::vector<Variable*> leaves_;
  std::vector<bool> saved_;
};

}  // namespace autograd
}  // namespace mocograd

#endif  // MOCOGRAD_AUTOGRAD_VARIABLE_H_
