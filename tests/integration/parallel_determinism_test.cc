// The parallel compute layer's core guarantee: for ANY pool size, every
// kernel and the trainer's concurrent per-task forward and backward produce
// output bit-identical to the serial (1-thread) path. Chunk boundaries never
// influence results, and reductions use a fixed block decomposition whose
// partials combine in block order (see base/thread_pool.h, tensor/ops.cc).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/executor.h"
#include "autograd/ops.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/grad_matrix.h"
#include "core/registry.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing/mtl_cases.h"

namespace mocograd {
namespace {

using autograd::Variable;

const int kThreadCounts[] = {1, 2, 8};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.NumElements() == b.NumElements() &&
         std::memcmp(a.data(), b.data(),
                     a.NumElements() * sizeof(float)) == 0;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_exec_ = autograd::CurrentBackwardExecutor();
  }
  // Leave a serial pool (and the entry executor) behind so other binaries'
  // expectations about the default environment still hold if this process
  // forks more work.
  void TearDown() override {
    autograd::SetBackwardExecutor(previous_exec_);
    ThreadPool::SetGlobalNumThreads(1);
  }

 private:
  autograd::BackwardExecutor previous_exec_ =
      autograd::BackwardExecutor::kReadyQueue;
};

TEST_F(ParallelDeterminismTest, GemmBitIdenticalAcrossThreadCounts) {
  Rng rng(42);
  const int64_t m = 67, n = 83, k = 129;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c0 = Tensor::Randn({m, n}, rng);

  std::vector<Tensor> results;
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalNumThreads(threads);
    Tensor c = c0.Clone();
    Gemm(false, false, m, n, k, 1.3f, a.data(), k, b.data(), n, 0.7f,
         c.data(), n);
    results.push_back(c);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(BitIdentical(results[0], results[i]))
        << "Gemm differs at " << kThreadCounts[i] << " threads";
  }

  // Transposed operands go through the packing path; check it too.
  results.clear();
  Tensor at = tops::Transpose2D(a);  // [k, m] stored
  Tensor bt = tops::Transpose2D(b);  // [n, k] stored
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalNumThreads(threads);
    Tensor c = c0.Clone();
    Gemm(true, true, m, n, k, 1.0f, at.data(), m, bt.data(), k, 1.0f,
         c.data(), n);
    results.push_back(c);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(BitIdentical(results[0], results[i]))
        << "transposed Gemm differs at " << kThreadCounts[i] << " threads";
  }
}

TEST_F(ParallelDeterminismTest, ReductionsBitIdenticalAcrossThreadCounts) {
  Rng rng(7);
  // Large enough for several fixed reduction blocks.
  Tensor a = Tensor::Randn({100003}, rng);
  Tensor b = Tensor::Randn({100003}, rng);

  float sum1 = 0, norm1 = 0, dot1 = 0;
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalNumThreads(threads);
    const float sum = tops::SumAll(a);
    const float norm = tops::Norm(a);
    const float dot = tops::Dot(a, b);
    if (threads == 1) {
      sum1 = sum;
      norm1 = norm;
      dot1 = dot;
    } else {
      EXPECT_EQ(std::memcmp(&sum, &sum1, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&norm, &norm1, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&dot, &dot1, sizeof(float)), 0);
    }
  }
}

TEST_F(ParallelDeterminismTest, GradMatrixOpsBitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const int kTasks = 3;
  const int64_t dim = 120001;
  core::GradMatrix grads(kTasks, dim);
  for (int t = 0; t < kTasks; ++t) {
    float* row = grads.Row(t);
    for (int64_t p = 0; p < dim; ++p) row[p] = rng.Normal();
  }

  double dot1 = 0;
  std::vector<float> sum1, wsum1;
  const std::vector<double> w = {0.2, 1.7, -0.4};
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalNumThreads(threads);
    const double dot = grads.RowDot(0, 1);
    std::vector<float> sum = grads.SumRows();
    std::vector<float> wsum = grads.WeightedSumRows(w);
    if (threads == 1) {
      dot1 = dot;
      sum1 = sum;
      wsum1 = wsum;
    } else {
      EXPECT_EQ(std::memcmp(&dot, &dot1, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(sum.data(), sum1.data(),
                            sum.size() * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(wsum.data(), wsum1.data(),
                            wsum.size() * sizeof(float)),
                0);
    }
  }
}

// BackwardInto must leave exactly the bits in its sink that Backward()
// leaves in the leaves' grad buffers (from a zeroed state).
TEST_F(ParallelDeterminismTest, BackwardIntoMatchesBackwardBitwise) {
  ThreadPool::SetGlobalNumThreads(1);
  Rng rng(5);
  Variable w(Tensor::Randn({32, 16}, rng), /*requires_grad=*/true);
  Variable x(Tensor::Randn({48, 32}, rng), /*requires_grad=*/false);
  Variable y = autograd::Tanh(autograd::MatMul(x, w));
  Variable loss = autograd::MseLoss(y, Tensor::Zeros(y.shape()));

  loss.Backward();
  Tensor reference = w.grad().Clone();

  Variable::GradSink sink;
  loss.BackwardInto(&sink);
  auto it = sink.find(w.node().get());
  ASSERT_NE(it, sink.end());
  EXPECT_TRUE(BitIdentical(reference, it->second));
}

// End to end over every model whose forward builds the K per-task tapes
// concurrently (HPS, MMoE, CGC, EmbeddingHps) and whose K backward sweeps run
// concurrently: several optimization steps must leave bit-identical
// parameters and losses for any pool size and either executor. Both input
// settings are covered: distinct per-task batches, and one shared input —
// through the trainer (one tensor per batch) and as the same Variable passed
// K times straight to Forward. Runs in CI's pool-2/8 and TSan steps, so the
// concurrent tape build gets a race check.
TEST_F(ParallelDeterminismTest, TrainerStepsBitIdenticalAcrossThreadCounts) {
  constexpr int kTasks = 3;
  // Everything one run produces, flattened for a bitwise comparison.
  auto run = [](testing::MtlArch arch, bool distinct_inputs, int threads,
                autograd::BackwardExecutor exec) {
    ThreadPool::SetGlobalNumThreads(threads);
    autograd::SetBackwardExecutor(exec);
    testing::MtlCase c =
        testing::MakeMtlCase(arch, /*seed=*/123, kTasks, distinct_inputs,
                             /*rows=*/64);
    std::vector<Tensor> out;
    if (!distinct_inputs) {
      // The same Variable K times: one shared leaf feeds every task tape.
      const std::vector<Variable> same(kTasks,
                                       Variable(c.batches[0].x, false));
      std::vector<Variable> preds = c.model->Forward(same);
      for (int t = 0; t < kTasks; ++t) {
        out.push_back(preds[t].value());
        autograd::MeanAll(preds[t]).Backward();
      }
      for (Variable* p : c.model->Parameters()) {
        out.push_back(p->grad().Clone());
      }
      c.model->ZeroGrad();
    }

    auto aggregator = core::MakeAggregator("mocograd").value();
    optim::Adam opt(c.model->Parameters(), 1e-2f);
    mtl::MtlTrainer trainer(c.model.get(), aggregator.get(), &opt, c.kinds,
                            /*seed=*/17);
    for (int step = 0; step < 4; ++step) {
      const mtl::StepStats stats = trainer.Step(c.batches);
      out.push_back(Tensor::FromVector({kTasks}, stats.losses));
    }
    for (const Tensor& pred : trainer.Predict(c.batches)) out.push_back(pred);
    for (Variable* p : c.model->Parameters()) {
      out.push_back(p->value().Clone());
    }
    return out;
  };

  for (testing::MtlArch arch : testing::TaskSeparableMtlArchs()) {
    for (bool distinct : {true, false}) {
      SCOPED_TRACE(std::string(testing::MtlArchName(arch)) +
                   (distinct ? " distinct inputs" : " one shared input"));
      const std::vector<Tensor> reference =
          run(arch, distinct, 1, autograd::BackwardExecutor::kSequential);
      for (autograd::BackwardExecutor exec :
           {autograd::BackwardExecutor::kSequential,
            autograd::BackwardExecutor::kReadyQueue}) {
        for (int threads : kThreadCounts) {
          const std::vector<Tensor> got = run(arch, distinct, threads, exec);
          ASSERT_EQ(got.size(), reference.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(BitIdentical(reference[i], got[i]))
                << "tensor " << i << " differs at " << threads
                << " threads, "
                << (exec == autograd::BackwardExecutor::kReadyQueue ? "ready"
                                                                    : "seq");
          }
        }
      }
    }
  }
}

// The tentpole scenario for the ready-queue executor: K per-task sweeps over
// one shared trunk launched concurrently, each feeding its ready nodes to the
// same pool. For every pool size and either executor, each task's sink must
// hold exactly the bits a serial 1-thread sequential sweep produces.
TEST_F(ParallelDeterminismTest, ConcurrentSharedTrunkSweepsBitIdentical) {
  constexpr int kTasks = 4;
  Rng rng(2024);
  // One shared trunk, K task heads — the trainer's tape shape in miniature.
  Variable w_trunk(Tensor::Randn({40, 56}, rng), /*requires_grad=*/true);
  Variable x(Tensor::Randn({24, 40}, rng), /*requires_grad=*/false);
  std::vector<Variable> heads;
  std::vector<Tensor> targets;
  for (int t = 0; t < kTasks; ++t) {
    heads.emplace_back(Tensor::Randn({56, 3}, rng), /*requires_grad=*/true);
    targets.push_back(Tensor::Randn({24, 3}, rng));
  }
  Variable trunk = autograd::Tanh(autograd::MatMul(x, w_trunk));
  std::vector<Variable> losses;
  for (int t = 0; t < kTasks; ++t) {
    losses.push_back(autograd::MseLoss(autograd::MatMul(trunk, heads[t]),
                                       targets[t]));
  }

  // Reference: serial sequential sweeps at pool size 1.
  autograd::SetBackwardExecutor(autograd::BackwardExecutor::kSequential);
  ThreadPool::SetGlobalNumThreads(1);
  std::vector<Variable::GradSink> reference(kTasks);
  for (int t = 0; t < kTasks; ++t) losses[t].BackwardInto(&reference[t]);

  for (autograd::BackwardExecutor exec :
       {autograd::BackwardExecutor::kSequential,
        autograd::BackwardExecutor::kReadyQueue}) {
    autograd::SetBackwardExecutor(exec);
    for (int threads : kThreadCounts) {
      ThreadPool::SetGlobalNumThreads(threads);
      std::vector<Variable::GradSink> sinks(kTasks);
      ParallelFor(0, kTasks, 1, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          losses[t].BackwardInto(&sinks[t]);
        }
      });
      for (int t = 0; t < kTasks; ++t) {
        for (const Variable* leaf : {&w_trunk, &heads[t]}) {
          auto ref_it = reference[t].find(leaf->node().get());
          auto got_it = sinks[t].find(leaf->node().get());
          ASSERT_NE(ref_it, reference[t].end());
          ASSERT_NE(got_it, sinks[t].end());
          EXPECT_TRUE(BitIdentical(ref_it->second, got_it->second))
              << "task " << t << " differs at " << threads << " threads, "
              << (exec == autograd::BackwardExecutor::kReadyQueue ? "ready"
                                                                  : "seq");
        }
      }
    }
  }
}

}  // namespace
}  // namespace mocograd
