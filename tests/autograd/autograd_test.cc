#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "testing/gradcheck.h"

namespace mocograd {
namespace {

using autograd::Variable;
namespace ag = autograd;
namespace t = tops;

TEST(VariableTest, LeafBasics) {
  Variable v(Tensor::FromVector({2}, {1, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  v.mutable_grad();
  EXPECT_TRUE(v.has_grad());
  EXPECT_FLOAT_EQ(v.grad()[0], 0.0f);
}

TEST(VariableTest, CopySharesNode) {
  Variable a(Tensor::FromVector({1}, {3}), true);
  Variable b = a;
  b.mutable_value()[0] = 5.0f;
  EXPECT_FLOAT_EQ(a.value()[0], 5.0f);
}

TEST(VariableTest, SimpleChainRule) {
  // y = sum((2x)^2) => dy/dx = 8x
  Variable x(Tensor::FromVector({3}, {1, 2, 3}), true);
  Variable two_x = ag::MulScalar(x, 2.0f);
  Variable sq = ag::Mul(two_x, two_x);
  Variable y = ag::SumAll(sq);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 16.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 24.0f);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  // Two roots over the same leaf: grads must add (the per-task pattern).
  Variable x(Tensor::FromVector({2}, {1, 1}), true);
  Variable l1 = ag::SumAll(ag::MulScalar(x, 3.0f));
  Variable l2 = ag::SumAll(ag::MulScalar(x, 4.0f));
  l1.Backward();
  l2.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
  x.ZeroGrad();
  l1.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
}

TEST(VariableTest, DiamondGraphSumsPaths) {
  // y = sum(x*x + x*x); dy/dx = 4x
  Variable x(Tensor::FromVector({1}, {3}), true);
  Variable a = ag::Mul(x, x);
  Variable y = ag::SumAll(ag::Add(a, a));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);
}

TEST(VariableTest, NoGradThroughConstLeaf) {
  Variable x(Tensor::FromVector({1}, {2}), true);
  Variable c(Tensor::FromVector({1}, {5}), false);
  Variable y = ag::SumAll(ag::Mul(x, c));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  EXPECT_FALSE(c.has_grad());
}

// A node that needs no gradient is never entered by a sweep, so MakeOp keeps
// neither its parents nor its grad_fn: the inputs die with their last handle.
TEST(VariableTest, GradFreeOpHoldsNoParents) {
  Variable a(Tensor::FromVector({2}, {1, 2}), false);
  Variable b(Tensor::FromVector({2}, {3, 4}), false);
  Variable y = ag::Mul(a, b);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
  EXPECT_FALSE(y.node()->grad_fn);
  EXPECT_FLOAT_EQ(y.value()[1], 8.0f);

  std::weak_ptr<autograd::Node> a_node = a.node();
  a = Variable();
  EXPECT_TRUE(a_node.expired()) << "gradient-free op kept its parent alive";

  // One parent needing grad keeps the whole edge list.
  Variable w(Tensor::FromVector({2}, {5, 6}), true);
  Variable z = ag::Mul(b, w);
  EXPECT_TRUE(z.requires_grad());
  ASSERT_EQ(z.node()->parents.size(), 2u);
  EXPECT_EQ(z.node()->parents[0], b.node());
  EXPECT_EQ(z.node()->parents[1], w.node());
}

TEST(NoGradScopeTest, BuildsNoTapeAndRestoresFlags) {
  Variable w(Tensor::FromVector({2}, {5, 6}), true);
  Variable c(Tensor::FromVector({2}, {1, 1}), false);
  Variable x(Tensor::FromVector({2}, {2, 3}), false);
  Variable y;
  {
    autograd::NoGradScope no_grad({&w, &c});
    EXPECT_FALSE(w.requires_grad());
    y = ag::SumAll(ag::Mul(ag::Add(x, c), w));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
  }
  EXPECT_TRUE(w.requires_grad());
  EXPECT_FALSE(c.requires_grad());
  EXPECT_FLOAT_EQ(y.value().Item(), 3.0f * 5.0f + 4.0f * 6.0f);

  // Outside the scope the same expression records a tape again.
  Variable y2 = ag::SumAll(ag::Mul(ag::Add(x, c), w));
  y2.Backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(w.grad()[1], 4.0f);
}

TEST(NoGradScopeTest, LeafListedTwiceGetsItsFlagBack) {
  Variable w(Tensor::FromVector({1}, {1}), true);
  {
    autograd::NoGradScope no_grad({&w, &w});
    EXPECT_FALSE(w.requires_grad());
  }
  EXPECT_TRUE(w.requires_grad());
}

// --- Parameterized numerical gradient checks over unary ops ---------------

struct UnaryCase {
  const char* name;
  Variable (*fn)(const Variable&);
  float lo, hi;  // sampling range keeping the op well-conditioned
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifference) {
  const UnaryCase& c = GetParam();
  Rng rng(42);
  Tensor x = Tensor::Rand({3, 4}, rng, c.lo, c.hi);
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::MeanAll(c.fn(v[0]));
      },
      {x});
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"Neg", &ag::Neg, -2.0f, 2.0f},
        UnaryCase{"Exp", &ag::Exp, -1.0f, 1.0f},
        UnaryCase{"Log", &ag::Log, 0.5f, 3.0f},
        UnaryCase{"Sqrt", &ag::Sqrt, 0.5f, 4.0f},
        UnaryCase{"Tanh", &ag::Tanh, -2.0f, 2.0f},
        UnaryCase{"Sigmoid", &ag::Sigmoid, -3.0f, 3.0f},
        UnaryCase{"Relu", &ag::Relu, 0.2f, 2.0f}),  // stay off the kink
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

// --- Binary ops with broadcasting ------------------------------------------

TEST(BinaryGradTest, AddBroadcastRow) {
  Rng rng(1);
  Tensor a = Tensor::Randn({3, 4}, rng);
  Tensor b = Tensor::Randn({4}, rng);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Add(v[0], v[1]));
      },
      {a, b});
}

TEST(BinaryGradTest, MulBroadcastCol) {
  Rng rng(2);
  Tensor a = Tensor::Randn({3, 4}, rng);
  Tensor b = Tensor::Randn({3, 1}, rng);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Mul(v[0], v[1]));
      },
      {a, b});
}

TEST(BinaryGradTest, SubAndDiv) {
  Rng rng(3);
  Tensor a = Tensor::Rand({2, 3}, rng, 1.0f, 2.0f);
  Tensor b = Tensor::Rand({2, 3}, rng, 1.0f, 2.0f);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Div(ag::Sub(v[0], v[1]), v[1]));
      },
      {a, b});
}

TEST(MatMulGradTest, MatchesFiniteDifference) {
  Rng rng(4);
  Tensor a = Tensor::Randn({3, 5}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::Randn({5, 2}, rng, 0.0f, 0.5f);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::MatMul(v[0], v[1]));
      },
      {a, b});
}

TEST(ShapeOpsGradTest, ReshapeTransposeConcatSlice) {
  Rng rng(5);
  Tensor a = Tensor::Randn({2, 6}, rng);
  Tensor b = Tensor::Randn({2, 2}, rng);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable r = ag::Reshape(v[0], {4, 3});
        Variable tr = ag::Transpose2D(r);              // [3,4]
        Variable sl = ag::SliceCols(tr, 1, 2);         // [3,2]
        Variable cat = ag::Concat({sl, sl}, 0);        // [6,2]
        Variable mixed = ag::Concat({cat, ag::Concat({v[1], v[1], v[1]}, 0)},
                                    1);                // [6,4]
        return ag::MeanAll(ag::Tanh(mixed));
      },
      {a, b});
}

TEST(GatherRowsGradTest, ScattersBack) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Variable t_var(table, true);
  Variable g = ag::GatherRows(t_var, {2, 2, 0});
  Variable loss = ag::SumAll(g);
  loss.Backward();
  EXPECT_FLOAT_EQ(t_var.grad().At(2, 0), 2.0f);  // picked twice
  EXPECT_FLOAT_EQ(t_var.grad().At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t_var.grad().At(1, 0), 0.0f);
}

TEST(SoftmaxRowsGradTest, MatchesFiniteDifference) {
  Rng rng(6);
  Tensor a = Tensor::Randn({3, 4}, rng);
  Tensor w = Tensor::Randn({3, 4}, rng);  // random projection for the loss
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::MeanAll(
            ag::Mul(ag::SoftmaxRows(v[0]), Variable(w, false)));
      },
      {a});
}

TEST(LossGradTest, SoftmaxCrossEntropy) {
  Rng rng(7);
  Tensor logits = Tensor::Randn({4, 3}, rng);
  std::vector<int64_t> labels = {0, 2, 1, 2};
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::SoftmaxCrossEntropy(v[0], labels);
      },
      {logits});
}

TEST(LossGradTest, SoftmaxCrossEntropyValue) {
  // Uniform logits over c classes -> loss = log(c).
  Tensor logits = Tensor::Zeros({2, 4});
  Variable v(logits, true);
  Variable loss = ag::SoftmaxCrossEntropy(v, {1, 3});
  EXPECT_NEAR(loss.value().Item(), std::log(4.0f), 1e-5);
}

TEST(LossGradTest, BceWithLogits) {
  Rng rng(8);
  Tensor logits = Tensor::Randn({5, 1}, rng);
  Tensor targets = Tensor::FromVector({5, 1}, {1, 0, 1, 1, 0});
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::BceWithLogits(v[0], targets);
      },
      {logits});
}

TEST(LossGradTest, BceWithLogitsValue) {
  // logit 0 -> loss = log 2 regardless of target.
  Variable v(Tensor::Zeros({3, 1}), true);
  Variable loss = ag::BceWithLogits(v, Tensor::FromVector({3, 1}, {1, 0, 1}));
  EXPECT_NEAR(loss.value().Item(), std::log(2.0f), 1e-5);
}

TEST(LossGradTest, MseAndL1) {
  Rng rng(9);
  Tensor pred = Tensor::Randn({4, 2}, rng);
  Tensor target = Tensor::Randn({4, 2}, rng);
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::MseLoss(v[0], target);
      },
      {pred});

  // L1 at points away from zero-crossings.
  Tensor pred2 = Tensor::FromVector({3}, {1.0f, -2.0f, 0.5f});
  Tensor target2 = Tensor::FromVector({3}, {0.0f, 1.0f, -1.0f});
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::L1Loss(v[0], target2);
      },
      {pred2});
}

TEST(Conv2dGradTest, MatchesFiniteDifference) {
  tops::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  Rng rng(10);
  Tensor x = Tensor::Randn({2, 2, 4, 4}, rng, 0.0f, 0.5f);
  Tensor w = Tensor::Randn({3, 2, 3, 3}, rng, 0.0f, 0.3f);
  Tensor b = Tensor::Randn({3}, rng, 0.0f, 0.1f);
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Conv2d(v[0], v[1], v[2], spec));
      },
      {x, w, b});
}

TEST(Conv2dGradTest, StridedConvGradcheck) {
  tops::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 2;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  Rng rng(11);
  Tensor x = Tensor::Randn({1, 1, 5, 5}, rng, 0.0f, 0.5f);
  Tensor w = Tensor::Randn({2, 1, 3, 3}, rng, 0.0f, 0.3f);
  Tensor b = Tensor::Zeros({2});
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Conv2d(v[0], v[1], v[2], spec));
      },
      {x, w, b});
}

TEST(Conv2dTest, KnownValueIdentityKernel) {
  // 1x1 conv with unit weight copies the input channel.
  tops::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  spec.kernel = 1;
  spec.stride = 1;
  spec.padding = 0;
  Tensor x = Tensor::Arange(9).Reshape({1, 1, 3, 3});
  Variable xv(x, false);
  Variable w(Tensor::Ones({1, 1, 1, 1}), false);
  Variable b(Tensor::Zeros({1}), false);
  Variable y = ag::Conv2d(xv, w, b, spec);
  for (int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], static_cast<float>(i));
  }
}

TEST(ChannelsToLastGradTest, RoundTripAndGrad) {
  Rng rng(12);
  Tensor x = Tensor::Randn({2, 3, 2, 2}, rng);
  Variable xv(x, true);
  Variable y = ag::ChannelsToLast(xv);
  EXPECT_EQ(y.shape(), (Shape{8, 3}));
  // Value check: element (n=1, c=2, h=0, w=1).
  EXPECT_FLOAT_EQ(y.value().At(1 * 4 + 0 * 2 + 1, 2),
                  x.data()[((1 * 3 + 2) * 2 + 0) * 2 + 1]);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Tanh(ag::ChannelsToLast(v[0])));
      },
      {x});
}

TEST(BackwardSeedTest, ExplicitSeedScalesGrad) {
  Variable x(Tensor::FromVector({2}, {1, 2}), true);
  Variable y = ag::MulScalar(x, 3.0f);
  y.Backward(Tensor::FromVector({2}, {1.0f, 10.0f}));
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 30.0f);
}

}  // namespace
}  // namespace mocograd
