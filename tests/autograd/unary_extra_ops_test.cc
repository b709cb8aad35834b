#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "autograd/ops.h"
#include "base/simd.h"
#include "tensor/ops.h"
#include "testing/gradcheck.h"

namespace mocograd {
namespace {

using autograd::Variable;
namespace ag = autograd;

TEST(SoftplusTest, ValuesAndStability) {
  Tensor x = Tensor::FromVector({4}, {-50.0f, -1.0f, 0.0f, 50.0f});
  Variable y = ag::Softplus(Variable(x, false));
  EXPECT_NEAR(y.value()[0], 0.0f, 1e-6);        // large negative → 0
  EXPECT_NEAR(y.value()[1], std::log1p(std::exp(-1.0f)), 1e-6);
  EXPECT_NEAR(y.value()[2], std::log(2.0f), 1e-6);
  EXPECT_NEAR(y.value()[3], 50.0f, 1e-4);       // large positive → x
  EXPECT_TRUE(std::isfinite(y.value()[3]));
}

TEST(SoftplusTest, Gradcheck) {
  Rng rng(71);
  Tensor x = Tensor::Randn({3, 4}, rng);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Softplus(v[0]));
      },
      {x});
}

TEST(PowScalarTest, ValuesAndGradcheck) {
  Tensor x = Tensor::FromVector({3}, {1.0f, 4.0f, 9.0f});
  Variable y = ag::PowScalar(Variable(x, false), 0.5f);
  EXPECT_NEAR(y.value()[1], 2.0f, 1e-6);
  EXPECT_NEAR(y.value()[2], 3.0f, 1e-6);

  Rng rng(73);
  Tensor pos = Tensor::Rand({2, 3}, rng, 0.5f, 2.0f);
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::PowScalar(v[0], 1.7f));
      },
      {pos});
}

TEST(ClampOpTest, ValuesAndGradientMask) {
  Variable x(Tensor::FromVector({4}, {-2.0f, -0.5f, 0.5f, 2.0f}), true);
  Variable y = ag::Clamp(x, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(y.value()[0], -1.0f);
  EXPECT_FLOAT_EQ(y.value()[3], 1.0f);
  ag::SumAll(y).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);  // clamped: no gradient
  EXPECT_FLOAT_EQ(x.grad()[1], 1.0f);  // inside: pass-through
  EXPECT_FLOAT_EQ(x.grad()[2], 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[3], 0.0f);
}

TEST(ClampOpTest, GradcheckInsideInterval) {
  Rng rng(79);
  Tensor x = Tensor::Rand({3, 3}, rng, -0.8f, 0.8f);  // strictly inside
  testing::ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Clamp(v[0], -1.0f, 1.0f));
      },
      {x});
}

TEST(ClampOpTest, InvalidBoundsAbort) {
  Variable x(Tensor::Zeros({2}), true);
  EXPECT_DEATH(ag::Clamp(x, 1.0f, -1.0f), "Clamp bounds");
}

// Relu's and Clamp's backward are one span kernel computing g times the
// 0/1 derivative mask. Each element must carry exactly the bits of the
// two-pass Mul(g, mask) it replaces, special values included: -0 from a
// negative g, NaN from ±inf·0 and NaN·0, and a 0 mask wherever x is NaN.
// Every g value meets every x value, so the 81 elements fill ten 8-lane
// blocks and a scalar tail; checked on every kernel tier this host runs.
TEST(ActivationBackwardTest, ReluAndClampMatchMaskMultiplyBitwise) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> vals = {-2.0f, -0.0f, 0.0f, 0.5f,  2.0f,
                                   kInf,  -kInf, kNan, 1e-40f};
  const int64_t m = static_cast<int64_t>(vals.size());
  Tensor g(Shape{m, m});
  Tensor x(Shape{m, m});
  for (int64_t i = 0; i < m * m; ++i) {
    g[i] = vals[i / m];
    x[i] = vals[i % m];
  }
  auto mask_of = [&x](bool (*pass)(float)) {
    Tensor mask(x.shape());
    for (int64_t i = 0; i < x.NumElements(); ++i) {
      mask[i] = pass(x[i]) ? 1.0f : 0.0f;
    }
    return mask;
  };
  const Tensor relu_ref =
      tops::Mul(g, mask_of([](float v) { return v > 0.0f; }));
  const Tensor clamp_ref = tops::Mul(
      g, mask_of([](float v) { return v > -1.0f && v < 1.0f; }));
  EXPECT_TRUE(std::signbit(relu_ref[0]));  // -2 · 0 = -0
  EXPECT_TRUE(std::isnan(relu_ref[5 * m]));  // inf · 0
  EXPECT_TRUE(std::isnan(relu_ref[7 * m + 4]));  // NaN · 1
  const size_t bytes = m * m * sizeof(float);
  auto same = [bytes](const Tensor& a, const Tensor& b) {
    return std::memcmp(a.data(), b.data(), bytes) == 0;
  };

  const simd::IsaTier start = simd::ActiveTier();
  for (simd::IsaTier tier :
       {simd::IsaTier::kScalar, simd::IsaTier::kSse, simd::IsaTier::kNeon,
        simd::IsaTier::kAvx2, simd::IsaTier::kAvx512}) {
    simd::SetTier(tier);
    if (simd::ActiveTier() != tier) continue;  // not on this host
    SCOPED_TRACE(simd::TierName(tier));
    EXPECT_TRUE(same(tops::ReluBackward(g, x), relu_ref));
    EXPECT_TRUE(same(tops::ClampBackward(g, x, -1.0f, 1.0f), clamp_ref));
    // One element at a time, every pair runs the kernels' scalar tail.
    for (int64_t i = 0; i < m * m; ++i) {
      const Tensor gi = Tensor::FromVector({1}, {g[i]});
      const Tensor xi = Tensor::FromVector({1}, {x[i]});
      EXPECT_EQ(std::memcmp(tops::ReluBackward(gi, xi).data(),
                            relu_ref.data() + i, sizeof(float)),
                0)
          << "Relu tail, element " << i;
      EXPECT_EQ(std::memcmp(tops::ClampBackward(gi, xi, -1.0f, 1.0f).data(),
                            clamp_ref.data() + i, sizeof(float)),
                0)
          << "Clamp tail, element " << i;
    }
    // And through the ops' grad_fns.
    const Variable relu = ag::Relu(Variable(x, true));
    EXPECT_TRUE(same(relu.node()->grad_fn(g)[0], relu_ref));
    const Variable clamp = ag::Clamp(Variable(x, true), -1.0f, 1.0f);
    EXPECT_TRUE(same(clamp.node()->grad_fn(g)[0], clamp_ref));
  }
  simd::SetTier(start);
}

// End-to-end model-level gradient check: an entire HPS forward + loss must
// agree with finite differences on every parameter of a small model.
TEST(ModelLevelGradcheckTest, TwoLayerNetworkMatchesFiniteDifference) {
  Rng rng(83);
  Tensor w1 = Tensor::Randn({3, 4}, rng, 0.0f, 0.5f);
  Tensor b1 = Tensor::Randn({4}, rng, 0.0f, 0.2f);
  Tensor w2 = Tensor::Randn({4, 2}, rng, 0.0f, 0.5f);
  Tensor x = Tensor::Randn({5, 3}, rng);
  Tensor target = Tensor::Randn({5, 2}, rng);
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        Variable h = ag::Tanh(ag::Add(ag::MatMul(Variable(x, false), v[0]),
                                      v[1]));
        Variable out = ag::MatMul(h, v[2]);
        return ag::MseLoss(out, target);
      },
      {w1, b1, w2});
}

}  // namespace
}  // namespace mocograd
