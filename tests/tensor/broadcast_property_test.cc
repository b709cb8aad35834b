// Property-based sweep of the broadcasting semantics: for a grid of shape
// pairs, every binary elementwise op must match an independent
// index-arithmetic oracle bit for bit, and SumToShape must be the exact
// adjoint of broadcasting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "tensor/ops.h"

namespace mocograd {
namespace {

namespace t = tops;

using ShapePair = std::tuple<std::vector<int64_t>, std::vector<int64_t>>;

class BroadcastPropertyTest : public ::testing::TestWithParam<ShapePair> {};

// Oracle: resolve the broadcast value of tensor `x` (shape padded to the
// output rank) at output coordinate `coord`.
float At(const Tensor& x, const Shape& out, const std::vector<int64_t>& coord) {
  const int off = out.Rank() - x.Rank();
  int64_t flat = 0;
  const auto strides = x.shape().Strides();
  for (int d = 0; d < x.Rank(); ++d) {
    const int64_t c = x.shape().Dim(d) == 1 ? 0 : coord[d + off];
    flat += c * strides[d];
  }
  return x.data()[flat];
}

// Randn values with NaN, ±0, ±inf and subnormals mixed in, so the ops'
// special-value rules (Maximum's NaN rule in particular) are compared too.
Tensor WithSpecials(const Shape& shape, Rng& rng) {
  constexpr float kSpecials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -3.0f * std::numeric_limits<float>::denorm_min()};
  constexpr int kNumSpecials = sizeof(kSpecials) / sizeof(kSpecials[0]);
  Tensor x = Tensor::Randn(shape, rng);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    if (rng.UniformInt(0, 4) == 0) {
      x[i] = kSpecials[rng.UniformInt(0, kNumSpecials)];
    }
  }
  return x;
}

bool SameBits(float x, float y) {
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

TEST_P(BroadcastPropertyTest, BinaryOpsMatchOracleBitwise) {
  const auto& [da, db] = GetParam();
  Rng rng(static_cast<uint64_t>(da.size() * 100 + db.size() + da.back()));
  Tensor a = WithSpecials(Shape(da), rng);
  Tensor b = WithSpecials(Shape(db), rng);
  const Tensor results[] = {t::Add(a, b), t::Sub(a, b), t::Mul(a, b),
                            t::Div(a, b), t::Maximum(a, b)};
  const char* names[] = {"Add", "Sub", "Mul", "Div", "Maximum"};
  const Shape out = Shape::Broadcast(a.shape(), b.shape());
  for (const Tensor& r : results) ASSERT_EQ(r.shape(), out);

  std::vector<int64_t> coord(out.Rank(), 0);
  const auto strides = out.Strides();
  for (int64_t flat = 0; flat < out.NumElements(); ++flat) {
    int64_t rem = flat;
    for (int d = 0; d < out.Rank(); ++d) {
      coord[d] = rem / strides[d];
      rem -= coord[d] * strides[d];
    }
    const float x = At(a, out, coord);
    const float y = At(b, out, coord);
    const float want[] = {x + y, x - y, x * y, x / y, std::max(x, y)};
    for (int op = 0; op < 5; ++op) {
      ASSERT_TRUE(SameBits(results[op][flat], want[op]))
          << names[op] << " flat " << flat << ": " << results[op][flat]
          << " vs " << want[op] << " (x=" << x << ", y=" << y << ")";
    }
  }
}

TEST_P(BroadcastPropertyTest, SumToShapeIsAdjointOfBroadcast) {
  // <broadcast(a), g> == <a, SumToShape(g, a.shape)> for all a, g.
  const auto& [da, db] = GetParam();
  Rng rng(17);
  Tensor a = Tensor::Randn(Shape(da), rng);
  Tensor b = Tensor::Randn(Shape(db), rng);
  const Shape out = Shape::Broadcast(a.shape(), b.shape());
  Tensor g = Tensor::Randn(out, rng);

  // broadcast(a) realized via a + zeros(out).
  Tensor a_bc = t::Add(a, Tensor::Zeros(out));
  const double lhs = t::Dot(a_bc, g);
  Tensor reduced = t::SumToShape(g, a.shape());
  const double rhs = t::Dot(a, reduced);
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, BroadcastPropertyTest,
    ::testing::Values(
        ShapePair{{3, 4}, {3, 4}},
        ShapePair{{3, 4}, {4}},
        ShapePair{{3, 1}, {1, 4}},
        ShapePair{{2, 3, 4}, {3, 4}},
        ShapePair{{2, 3, 4}, {1, 4}},
        ShapePair{{2, 1, 4}, {3, 1}},
        ShapePair{{5}, {1}},
        ShapePair{{1}, {4, 5}},
        ShapePair{{2, 2, 2, 2}, {2, 2}},
        ShapePair{{6, 1, 3}, {6, 2, 1}},
        ShapePair{{4, 1}, {1}},
        ShapePair{{1024, 37}, {37}}));  // above the parallel grain: fans out

// Each row case of the broadcast walk — both operands contiguous along the
// last axis, one of them broadcast along it (either side), and, at width 1,
// both broadcast — at last-axis widths that hit the SIMD block tails.
std::vector<ShapePair> RowCases() {
  std::vector<ShapePair> cases;
  for (int64_t n : {1, 7, 8, 9, 15, 16, 17, 33}) {
    cases.push_back({{5, n}, {n}});
    cases.push_back({{n}, {5, n}});
    cases.push_back({{5, n}, {5, 1}});
    cases.push_back({{5, 1}, {5, n}});
    cases.push_back({{5, 1}, {1, n}});
    cases.push_back({{2, 3, n}, {3, 1}});
    cases.push_back({{3, 1}, {2, 3, n}});
  }
  return cases;
}
INSTANTIATE_TEST_SUITE_P(RowCases, BroadcastPropertyTest,
                         ::testing::ValuesIn(RowCases()));

TEST(BroadcastFailureTest, IncompatibleShapesAbort) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 4});
  EXPECT_DEATH(tops::Add(a, b), "cannot broadcast");
  EXPECT_DEATH(Shape::Broadcast({3}, {4}), "cannot broadcast");
}

// A 0-length axis broadcast against a size-1 axis stays 0 (as in NumPy),
// so the result is empty rather than read out of an empty operand.
TEST(BroadcastZeroExtentTest, ZeroAxisBroadcastsToEmpty) {
  EXPECT_EQ(Shape::Broadcast({0, 4}, {4}), Shape({0, 4}));
  EXPECT_EQ(Shape::Broadcast({1}, {3, 0}), Shape({3, 0}));

  const Tensor sum = t::Add(Tensor::Zeros({0, 4}), Tensor::Zeros({4}));
  EXPECT_EQ(sum.shape(), Shape({0, 4}));
  EXPECT_EQ(t::Add(Tensor::Zeros({4}), Tensor::Zeros({0, 4})).shape(),
            Shape({0, 4}));
  const Tensor prod = t::Mul(Tensor::Zeros({3, 0}), Tensor::Zeros({3, 1}));
  EXPECT_EQ(prod.shape(), Shape({3, 0}));
  EXPECT_EQ(t::Maximum(Tensor::Zeros({3, 1}), Tensor::Zeros({3, 0})).shape(),
            Shape({3, 0}));

  // Gradients flow back to both operand shapes: the empty one unchanged,
  // the broadcast one as a sum over nothing.
  EXPECT_EQ(t::SumToShape(sum, Shape({0, 4})).shape(), Shape({0, 4}));
  EXPECT_EQ(t::SumToShape(prod, Shape({3, 0})).shape(), Shape({3, 0}));
  const Tensor bias_grad = t::SumToShape(sum, Shape({4}));
  ASSERT_EQ(bias_grad.shape(), Shape({4}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(bias_grad[i], 0.0f);
  const Tensor gate_grad = t::SumToShape(prod, Shape({3, 1}));
  ASSERT_EQ(gate_grad.shape(), Shape({3, 1}));
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(gate_grad[i], 0.0f);
}

TEST(ShapeFailureTest, OutOfRangeAndMismatches) {
  Tensor a = Tensor::Zeros({2, 3});
  EXPECT_DEATH(a.Dim(5), "");
  EXPECT_DEATH(a.Reshape({4, 2}), "Reshape");
  EXPECT_DEATH(tops::MatMul(a, Tensor::Zeros({4, 2})), "inner dims");
  EXPECT_DEATH(tops::SliceCols(a, 2, 5), "out of range");
  EXPECT_DEATH(tops::Dot(a, Tensor::Zeros({5})), "size mismatch");
  EXPECT_DEATH(tops::GatherRows(a, {7}), "out of range");
}

}  // namespace
}  // namespace mocograd
