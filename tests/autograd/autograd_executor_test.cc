// The backward-engine contract (autograd/executor.h, docs/AUTOGRAD.md):
// the ready-queue engine must be *bit-identical* to the sequential tape
// replay oracle on every graph shape — diamonds, wide fan-in, aliasing
// grad_fns — for any pool size, because its fixed per-edge accumulation slots replay
// the sequential engine's accumulation order exactly.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>
#include <vector>

#include "autograd/executor.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "tensor/tensor.h"

namespace mocograd {
namespace {

using autograd::Variable;
namespace ag = autograd;

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.NumElements() == b.NumElements() &&
         std::memcmp(a.data(), b.data(),
                     a.NumElements() * sizeof(float)) == 0;
}

// Restores the pool size after each test so the fixture order cannot leak
// into other tests in this binary.
class AutogradExecutorTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalNumThreads(1); }
};

// Runs `build` to make a fresh graph, backwards it on the sequential oracle
// or (through Backward) the ready-queue engine, and returns the leaf
// gradients in the order `build` reported the leaves.
std::vector<Tensor> GradsOn(
    bool oracle,
    const std::function<Variable(std::vector<Variable>*)>& build) {
  std::vector<Variable> leaves;
  Variable root = build(&leaves);
  if (oracle) {
    autograd::RunBackwardSequentialForTesting(
        root.node().get(), Tensor::Ones(root.shape()), /*sink=*/nullptr);
  } else {
    root.Backward();
  }
  std::vector<Tensor> grads;
  for (Variable& leaf : leaves) {
    EXPECT_TRUE(leaf.has_grad());
    grads.push_back(leaf.grad().Clone());
  }
  return grads;
}

void ExpectSeqReadyIdentical(
    const std::function<Variable(std::vector<Variable>*)>& build) {
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalNumThreads(threads);
    std::vector<Tensor> seq = GradsOn(/*oracle=*/true, build);
    std::vector<Tensor> ready = GradsOn(/*oracle=*/false, build);
    ASSERT_EQ(seq.size(), ready.size());
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_TRUE(BitIdentical(seq[i], ready[i]))
          << "leaf " << i << " differs at " << threads << " threads";
    }
  }
}

TEST_F(AutogradExecutorTest, DiamondGraphBitIdentical) {
  // Classic diamond: two independent branches re-joining at one node. The
  // ready-queue engine runs the branches concurrently; the join must merge
  // the two contributions in the sequential accumulation order.
  ExpectSeqReadyIdentical([](std::vector<Variable>* leaves) {
    Rng rng(31);
    Variable x(Tensor::Randn({64}, rng), /*requires_grad=*/true);
    leaves->push_back(x);
    Variable a = ag::Sigmoid(x);
    Variable b = ag::Tanh(x);
    return ag::SumAll(ag::Mul(a, b));
  });
}

TEST_F(AutogradExecutorTest, WideFanInBitIdentical) {
  // Eight parallel branches off one leaf, summed pairwise into a tree: the
  // leaf receives eight contributions whose accumulation order is the whole
  // determinism contract.
  ExpectSeqReadyIdentical([](std::vector<Variable>* leaves) {
    Rng rng(47);
    Variable x(Tensor::Randn({128}, rng), /*requires_grad=*/true);
    leaves->push_back(x);
    std::vector<Variable> branches;
    branches.push_back(ag::Sigmoid(x));
    branches.push_back(ag::Tanh(x));
    branches.push_back(ag::Relu(x));
    branches.push_back(ag::Exp(ag::MulScalar(x, 0.1f)));
    branches.push_back(ag::Softplus(x));
    branches.push_back(ag::Mul(x, x));
    branches.push_back(ag::MulScalar(x, -2.5f));
    branches.push_back(ag::PowScalar(ag::AddScalar(ag::Mul(x, x), 1.0f),
                                     0.5f));
    Variable acc = branches[0];
    for (size_t i = 1; i < branches.size(); ++i) {
      acc = ag::Add(acc, branches[i]);
    }
    return ag::SumAll(acc);
  });
}

TEST_F(AutogradExecutorTest, AliasingGradFnBitIdentical) {
  // Add's grad_fn passes the upstream gradient through unchanged when the
  // shapes already match (SumToShape returns an alias), so the same tensor
  // reaches two accumulation slots. Both engines must clone before mutating
  // or one slot's merge corrupts the other.
  ExpectSeqReadyIdentical([](std::vector<Variable>* leaves) {
    Rng rng(59);
    Variable x(Tensor::Randn({96}, rng), /*requires_grad=*/true);
    leaves->push_back(x);
    Variable y = ag::Add(ag::Add(ag::Sigmoid(x), ag::Tanh(x)), x);
    return ag::SumAll(ag::Mul(y, y));
  });
}

TEST_F(AutogradExecutorTest, MatMulChainMultipleLeavesBitIdentical) {
  // A small MLP-shaped graph: several leaves, interior fan-out, kernel-level
  // parallelism (GEMMs) nested inside the node-level parallelism.
  ExpectSeqReadyIdentical([](std::vector<Variable>* leaves) {
    Rng rng(73);
    Variable w1(Tensor::Randn({32, 48}, rng), /*requires_grad=*/true);
    Variable w2(Tensor::Randn({48, 8}, rng), /*requires_grad=*/true);
    leaves->push_back(w1);
    leaves->push_back(w2);
    Variable x(Tensor::Randn({16, 32}, rng), /*requires_grad=*/false);
    Variable h = ag::Tanh(ag::MatMul(x, w1));
    Variable out = ag::MatMul(h, w2);
    // h feeds two consumers so the shared trunk has real fan-out.
    Variable reg = ag::SumAll(ag::Mul(h, h));
    return ag::Add(ag::MseLoss(out, Tensor::Zeros(out.shape())), reg);
  });
}

TEST_F(AutogradExecutorTest, BackwardIntoMatchesBackwardOnReadyQueue) {
  ThreadPool::SetGlobalNumThreads(4);
  Rng rng(5);
  Variable w(Tensor::Randn({24, 12}, rng), /*requires_grad=*/true);
  Variable x(Tensor::Randn({32, 24}, rng), /*requires_grad=*/false);
  Variable loss =
      ag::MseLoss(ag::Tanh(ag::MatMul(x, w)), Tensor::Zeros({32, 12}));

  loss.Backward();
  Tensor reference = w.grad().Clone();

  Variable::GradSink sink;
  loss.BackwardInto(&sink);
  auto it = sink.find(w.node().get());
  ASSERT_NE(it, sink.end());
  EXPECT_TRUE(BitIdentical(reference, it->second));
}

// BackwardInto(LeafGrads) adds each leaf's gradient into the caller's
// zeroed span with Backward()'s bits, and refuses a sweep that reaches a
// leaf the caller gave no span, naming the op that consumes it.
TEST_F(AutogradExecutorTest, LeafGradsSpansMatchBackwardAndNeedEveryLeaf) {
  ThreadPool::SetGlobalNumThreads(1);
  Rng rng(9);
  Variable w(Tensor::Randn({24, 12}, rng), /*requires_grad=*/true);
  Variable x(Tensor::Randn({32, 24}, rng), /*requires_grad=*/false);
  Variable loss =
      ag::MseLoss(ag::Tanh(ag::MatMul(x, w)), Tensor::Zeros({32, 12}));

  loss.Backward();
  const Tensor reference = w.grad().Clone();
  std::vector<float> span(w.NumElements(), 0.0f);
  loss.BackwardInto(Variable::LeafGrads{{w.node().get(), span.data()}});
  EXPECT_EQ(std::memcmp(span.data(), reference.data(),
                        span.size() * sizeof(float)),
            0);

  EXPECT_DEATH(loss.BackwardInto(Variable::LeafGrads{}),
               "consumed by op MatMul has no LeafGrads entry");
}

TEST_F(AutogradExecutorTest, SinkAccumulatesAcrossRootsOnReadyQueue) {
  // Two BackwardInto calls with the same sink must sum, exactly like two
  // Backward() calls sum into the persistent grad buffer.
  ThreadPool::SetGlobalNumThreads(2);
  Variable x(Tensor::FromVector({2}, {1, 1}), /*requires_grad=*/true);
  Variable l1 = ag::SumAll(ag::MulScalar(x, 3.0f));
  Variable l2 = ag::SumAll(ag::MulScalar(x, 4.0f));

  Variable::GradSink sink;
  l1.BackwardInto(&sink);
  l2.BackwardInto(&sink);
  auto it = sink.find(x.node().get());
  ASSERT_NE(it, sink.end());
  EXPECT_FLOAT_EQ(it->second[0], 7.0f);
  EXPECT_FLOAT_EQ(it->second[1], 7.0f);
}

TEST_F(AutogradExecutorTest, NoGradLeafStaysUntouched) {
  Variable x(Tensor::FromVector({1}, {2}), /*requires_grad=*/true);
  Variable c(Tensor::FromVector({1}, {5}), /*requires_grad=*/false);
  Variable y = ag::SumAll(ag::Mul(x, c));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST_F(AutogradExecutorTest, PoolResizeAfterSweepDoesNotDeadlock) {
  // Regression: a straggling helper that wakes after its sweep finished used
  // to reach for ThreadPool::Global() while submitting follow-on helpers —
  // deadlocking against SetGlobalNumThreads, which holds the global pool
  // mutex across the worker join. The executor now pins the pool per sweep.
  // The window is a few instructions wide, so hammer it: wide-fan-in sweeps
  // (which spawn helpers) immediately followed by a pool resize.
  Rng rng(113);
  Tensor x0 = Tensor::Randn({64}, rng);
  for (int iter = 0; iter < 200; ++iter) {
    ThreadPool::SetGlobalNumThreads(2 + (iter & 1));
    Variable x(x0, /*requires_grad=*/true);
    Variable acc = ag::Sigmoid(x);
    acc = ag::Add(acc, ag::Tanh(x));
    acc = ag::Add(acc, ag::Relu(x));
    acc = ag::Add(acc, ag::Mul(x, x));
    ag::SumAll(acc).Backward();
  }
}

TEST_F(AutogradExecutorTest, GradFnErrorPropagatesFromWorkers) {
  // A grad_fn that throws must surface on the calling thread (and not hang
  // the sweep) even when pool workers are draining the queue.
  ThreadPool::SetGlobalNumThreads(4);
  Rng rng(91);
  Variable x(Tensor::Randn({8}, rng), /*requires_grad=*/true);
  Variable bad = Variable::MakeOp(
      "bad_op", ag::Tanh(x).value(), {ag::Tanh(x)},
      [](const Tensor&) -> std::vector<Tensor> {
        throw std::runtime_error("boom");
      });
  Variable y = ag::SumAll(bad);
  EXPECT_THROW(y.Backward(), std::runtime_error);
}

}  // namespace
}  // namespace mocograd
