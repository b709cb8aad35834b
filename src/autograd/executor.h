#ifndef MOCOGRAD_AUTOGRAD_BACKWARD_ENGINE_H_
#define MOCOGRAD_AUTOGRAD_BACKWARD_ENGINE_H_

#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace mocograd {
namespace autograd {

/// Runs one reverse-mode sweep from `root` with the given seed on the
/// dependency-counted ready-queue engine: a one-time graph pass computes
/// per-node outstanding-input counts, then the caller and idle ThreadPool
/// workers pop ready nodes, run their grad_fn, and enqueue newly-ready
/// nodes — independent branches of one sweep run concurrently, and
/// concurrent sweeps over a shared tape interleave at node granularity.
/// Leaf gradients accumulate into the caller-zeroed spans of `leaves`
/// (Variable::BackwardInto semantics; the tape is never written, and a
/// reached leaf without an entry fails the sweep before any node runs).
/// Entry point for Variable::Backward*; callers go through those.
void RunBackward(Node* root, const Tensor& seed,
                 const Variable::LeafGrads& leaves);

/// The same sweep with a GradSink destination: `sink == nullptr`
/// accumulates into each reached node's persistent grad buffer
/// (Variable::Backward semantics); otherwise each reached leaf accumulates
/// into its `*sink` tensor, which the build pass allocates zeroed on the
/// calling thread when absent, through the same leaf-span path as above.
void RunBackward(Node* root, const Tensor& seed, Variable::GradSink* sink);

/// The reference implementation RunBackward is tested against: a linear
/// tape replay in reverse topological order on the calling thread. Same
/// arguments and destination code as the GradSink RunBackward, and
/// bit-identical results — the ready-queue engine's fixed per-edge
/// accumulation slots replay this engine's accumulation order exactly
/// (docs/AUTOGRAD.md). Never called by the library; tests only.
void RunBackwardSequentialForTesting(Node* root, const Tensor& seed,
                                     Variable::GradSink* sink);

}  // namespace autograd
}  // namespace mocograd

#endif  // MOCOGRAD_AUTOGRAD_BACKWARD_ENGINE_H_
