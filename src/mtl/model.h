#ifndef MOCOGRAD_MTL_MODEL_H_
#define MOCOGRAD_MTL_MODEL_H_

#include <cstdint>
#include <vector>

#include "base/thread_pool.h"
#include "nn/module.h"

namespace mocograd {
namespace mtl {

using autograd::Variable;

/// A multi-task model: shared representation plus per-task branches.
///
/// Forward takes one input Variable per task (multi-input MTL); single-input
/// datasets pass the same Variable K times. The shared/task parameter split
/// is what the gradient-surgery trainer operates on: per-task gradients are
/// taken w.r.t. SharedParameters() and combined by a GradientAggregator,
/// while TaskParameters(k) only ever receive task k's own gradient.
class MtlModel : public nn::Module {
 public:
  virtual int num_tasks() const = 0;

  /// One prediction per task. `inputs.size()` must equal num_tasks().
  virtual std::vector<Variable> Forward(
      const std::vector<Variable>& inputs) = 0;

  /// Parameters updated by all tasks (trunk, experts, stitch units, ...).
  virtual std::vector<Variable*> SharedParameters() = 0;

  /// Parameters owned by task `k` (its head, gate, attention module, ...).
  virtual std::vector<Variable*> TaskParameters(int k) = 0;

  /// Total size of the flattened shared-parameter vector.
  int64_t SharedDim() {
    int64_t n = 0;
    for (Variable* p : SharedParameters()) n += p->NumElements();
    return n;
  }
};

/// Builds the K per-task forward tapes concurrently on the global pool:
/// `task_forward(k)` returns task k's prediction and is called once per
/// task, possibly from a pool worker, with outputs written by index.
///
/// Only for models whose task k subgraph reads nothing but `inputs[k]` and
/// shared parameter leaves (HPS, MMoE, CGC, EmbeddingHps); models that couple
/// tasks inside a layer (cross-stitch, MTAN, the scene model) forward
/// serially. The contract that makes this safe: forward ops and
/// Variable::MakeOp write no shared mutable state (mg_analyze's
/// task-parallel-static rule checks every function reachable from a caller
/// of this helper). Results are bit-identical to a serial loop at any pool
/// size: each task runs the same ops in the same order, nested GEMMs are
/// pool-size-invariant, and backward order comes from the tape's parent
/// edges, never from the order nodes were created (docs/AUTOGRAD.md).
template <typename TaskForward>
std::vector<Variable> ForwardTasksConcurrently(int num_tasks,
                                               TaskForward&& task_forward) {
  std::vector<Variable> outputs(num_tasks);
  ParallelFor(0, num_tasks, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      outputs[t] = task_forward(static_cast<int>(t));
    }
  });
  return outputs;
}

}  // namespace mtl
}  // namespace mocograd

#endif  // MOCOGRAD_MTL_MODEL_H_
