#ifndef MOCOGRAD_TENSOR_OPS_H_
#define MOCOGRAD_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace mocograd {
namespace tops {

/// Tensor-level math kernels (no autograd). The autograd layer in
/// src/autograd builds differentiable ops on top of these. Binary
/// elementwise ops broadcast NumPy-style.

// --- Elementwise binary (broadcasting) -----------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// --- Scalar variants ------------------------------------------------------
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor PowScalar(const Tensor& a, float exponent);

// --- Elementwise unary ----------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sign(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- Activation backward (same shape, one pass, no mask tensor) ----------
/// g * (x > 0 ? 1 : 0), bitwise Mul(g, mask) for the 0/1 Relu mask of x.
Tensor ReluBackward(const Tensor& g, const Tensor& x);
/// g * (lo < x < hi ? 1 : 0), bitwise Mul(g, mask) for Clamp's mask.
Tensor ClampBackward(const Tensor& g, const Tensor& x, float lo, float hi);

// --- In-place helpers (same shape, no broadcast) --------------------------

/// y += alpha * x.
void Axpy(float alpha, const Tensor& x, Tensor& y);
/// y *= s.
void ScaleInPlace(Tensor& y, float s);
/// y += x.
void AddInPlace(Tensor& y, const Tensor& x);
/// y[0, n) += x[0, n) on raw spans: AddInPlace's chunks and arithmetic,
/// for destinations that are not tensors (autograd leaf spans).
void AddInPlace(float* y, const float* x, int64_t n);

// --- Linear algebra --------------------------------------------------------

/// 2-D matrix product: [m,k] x [k,n] -> [m,n]. Optional transposes apply to
/// the stored operands.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// 2-D transpose (copies).
Tensor Transpose2D(const Tensor& a);

// --- Reductions -------------------------------------------------------------
float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);

/// L2 norm of all elements.
float Norm(const Tensor& a);

/// Dot product over all elements (shapes must match).
float Dot(const Tensor& a, const Tensor& b);

/// Sum over one axis. With keepdims the axis stays as size 1.
Tensor Sum(const Tensor& a, int axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int axis, bool keepdims = false);

/// Reduces `a` (whose shape broadcasts to `a.shape()`) down to `target` by
/// summing over the broadcast axes; used for broadcast-aware backward.
Tensor SumToShape(const Tensor& a, const Shape& target);

/// Row-wise argmax of a [n, c] tensor.
std::vector<int64_t> ArgMaxRows(const Tensor& a);

/// Numerically stable row-wise softmax of a [n, c] tensor.
Tensor SoftmaxRows(const Tensor& a);

/// Numerically stable row-wise log-softmax of a [n, c] tensor.
Tensor LogSoftmaxRows(const Tensor& a);

// --- Indexing / layout ------------------------------------------------------

/// Gathers rows of a [n, d] tensor: out[i] = a[indices[i]].
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices);

/// Backward of GatherRows: out is [n, d] zeros with out[indices[i]] += g[i].
Tensor ScatterAddRows(const Tensor& g, const std::vector<int64_t>& indices,
                      int64_t num_rows);

/// Columns [start, start+len) of a 2-D tensor (copies).
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);

/// Concatenation along an axis; all inputs share the other dims.
Tensor Concat(const std::vector<Tensor>& parts, int axis);

/// Splits along an axis into parts of the given sizes (inverse of Concat).
std::vector<Tensor> Split(const Tensor& a, int axis,
                          const std::vector<int64_t>& sizes);

// --- Convolution support ----------------------------------------------------

/// Layout of a conv: NCHW input [n, c, h, w], kernel k, stride s, zero
/// padding p. Output spatial dims follow the usual formula.
struct Conv2dSpec {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;

  int64_t OutDim(int64_t in) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }
};

/// im2col for one sample: input [c, h, w] -> columns [c*k*k, oh*ow].
void Im2Col(const float* input, const Conv2dSpec& spec, int64_t h, int64_t w,
            float* columns);

/// col2im for one sample: columns [c*k*k, oh*ow] accumulated into [c, h, w].
void Col2Im(const float* columns, const Conv2dSpec& spec, int64_t h,
            int64_t w, float* input_grad);

}  // namespace tops
}  // namespace mocograd

#endif  // MOCOGRAD_TENSOR_OPS_H_
