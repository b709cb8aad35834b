#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "base/check.h"
#include "base/scratch.h"
#include "base/thread_pool.h"
#include "obs/trace.h"
#include "tensor/gemm.h"

namespace mocograd {
namespace autograd {

namespace {
namespace t = ::mocograd::tops;
}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  Tensor av = a.value(), bv = b.value();
  return Variable::MakeOp(
      "Add", t::Add(av, bv), {a, b},
      [as = av.shape(), bs = bv.shape()](const Tensor& g) {
        return std::vector<Tensor>{t::SumToShape(g, as), t::SumToShape(g, bs)};
      });
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor av = a.value(), bv = b.value();
  return Variable::MakeOp(
      "Sub", t::Sub(av, bv), {a, b},
      [as = av.shape(), bs = bv.shape()](const Tensor& g) {
        return std::vector<Tensor>{t::SumToShape(g, as),
                                   t::SumToShape(t::Neg(g), bs)};
      });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor av = a.value(), bv = b.value();
  return Variable::MakeOp(
      "Mul", t::Mul(av, bv), {a, b}, [av, bv](const Tensor& g) {
        return std::vector<Tensor>{t::SumToShape(t::Mul(g, bv), av.shape()),
                                   t::SumToShape(t::Mul(g, av), bv.shape())};
      });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor av = a.value(), bv = b.value();
  return Variable::MakeOp(
      "Div", t::Div(av, bv), {a, b}, [av, bv](const Tensor& g) {
        Tensor da = t::SumToShape(t::Div(g, bv), av.shape());
        Tensor db = t::SumToShape(
            t::Neg(t::Div(t::Mul(g, av), t::Mul(bv, bv))), bv.shape());
        return std::vector<Tensor>{std::move(da), std::move(db)};
      });
}

Variable AddScalar(const Variable& a, float s) {
  return Variable::MakeOp("AddScalar", t::AddScalar(a.value(), s), {a},
                          [](const Tensor& g) {
                            return std::vector<Tensor>{g.Clone()};
                          });
}

Variable MulScalar(const Variable& a, float s) {
  return Variable::MakeOp("MulScalar", t::MulScalar(a.value(), s), {a},
                          [s](const Tensor& g) {
                            return std::vector<Tensor>{t::MulScalar(g, s)};
                          });
}

Variable Neg(const Variable& a) {
  return Variable::MakeOp("Neg", t::Neg(a.value()), {a},
                          [](const Tensor& g) {
                            return std::vector<Tensor>{t::Neg(g)};
                          });
}

Variable Exp(const Variable& a) {
  Tensor out = t::Exp(a.value());
  return Variable::MakeOp("Exp", out, {a}, [out](const Tensor& g) {
    return std::vector<Tensor>{t::Mul(g, out)};
  });
}

Variable Log(const Variable& a) {
  Tensor av = a.value();
  return Variable::MakeOp("Log", t::Log(av), {a}, [av](const Tensor& g) {
    return std::vector<Tensor>{t::Div(g, av)};
  });
}

Variable Sqrt(const Variable& a) {
  Tensor out = t::Sqrt(a.value());
  return Variable::MakeOp("Sqrt", out, {a}, [out](const Tensor& g) {
    return std::vector<Tensor>{t::Div(t::MulScalar(g, 0.5f), out)};
  });
}

Variable Tanh(const Variable& a) {
  Tensor out = t::Tanh(a.value());
  return Variable::MakeOp("Tanh", out, {a}, [out](const Tensor& g) {
    Tensor one_minus = t::Sub(Tensor::Ones(out.shape()), t::Mul(out, out));
    return std::vector<Tensor>{t::Mul(g, one_minus)};
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor out = t::Sigmoid(a.value());
  return Variable::MakeOp("Sigmoid", out, {a}, [out](const Tensor& g) {
    Tensor d = t::Mul(out, t::Sub(Tensor::Ones(out.shape()), out));
    return std::vector<Tensor>{t::Mul(g, d)};
  });
}

Variable Relu(const Variable& a) {
  Tensor av = a.value();
  return Variable::MakeOp("Relu", t::Relu(av), {a}, [av](const Tensor& g) {
    return std::vector<Tensor>{t::ReluBackward(g, av)};
  });
}

Variable Softplus(const Variable& a) {
  Tensor av = a.value();
  // Stable forward: max(x,0) + log1p(exp(-|x|)).
  Tensor out(av.shape());
  {
    const float* p = av.data();
    float* o = out.data();
    for (int64_t i = 0; i < av.NumElements(); ++i) {
      o[i] = std::max(p[i], 0.0f) + std::log1p(std::exp(-std::fabs(p[i])));
    }
  }
  return Variable::MakeOp("Softplus", out, {a}, [av](const Tensor& g) {
    // d/dx softplus = sigmoid(x).
    return std::vector<Tensor>{t::Mul(g, t::Sigmoid(av))};
  });
}

Variable PowScalar(const Variable& a, float exponent) {
  Tensor av = a.value();
  Tensor out = t::PowScalar(av, exponent);
  return Variable::MakeOp(
      "PowScalar", out, {a}, [av, exponent](const Tensor& g) {
        Tensor d = t::MulScalar(t::PowScalar(av, exponent - 1.0f), exponent);
        return std::vector<Tensor>{t::Mul(g, d)};
      });
}

Variable Clamp(const Variable& a, float lo, float hi) {
  MG_CHECK_LT(lo, hi, "Clamp bounds");
  Tensor av = a.value();
  return Variable::MakeOp(
      "Clamp", t::Clamp(av, lo, hi), {a}, [av, lo, hi](const Tensor& g) {
        return std::vector<Tensor>{t::ClampBackward(g, av, lo, hi)};
      });
}

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor av = a.value(), bv = b.value();
  Tensor out = t::MatMul(av, bv);
  // Only the gradients some operand needs: a sweep never routes one to a
  // parent that does not require grad, so its GEMM (and the captured
  // operand only that GEMM reads) is skipped.
  const bool need_a = a.requires_grad(), need_b = b.requires_grad();
  if (!need_a) bv = Tensor();  // bv feeds only da
  if (!need_b) av = Tensor();  // av feeds only db
  return Variable::MakeOp(
      "MatMul", std::move(out), {a, b},
      [av, bv, need_a, need_b](const Tensor& g) {
        Tensor da, db;
        if (need_a) da = t::MatMul(g, bv, /*trans_a=*/false, /*trans_b=*/true);
        if (need_b) db = t::MatMul(av, g, /*trans_a=*/true, /*trans_b=*/false);
        return std::vector<Tensor>{std::move(da), std::move(db)};
      });
}

Variable Transpose2D(const Variable& a) {
  return Variable::MakeOp("Transpose2D", t::Transpose2D(a.value()), {a},
                          [](const Tensor& g) {
                            return std::vector<Tensor>{t::Transpose2D(g)};
                          });
}

Variable Reshape(const Variable& a, std::vector<int64_t> dims) {
  Shape in_shape = a.value().shape();
  // Clone so the view does not alias the parent's storage on the tape.
  Tensor out = a.value().Reshape(std::move(dims)).Clone();
  return Variable::MakeOp("Reshape", out, {a},
                          [in_shape](const Tensor& g) {
                            return std::vector<Tensor>{
                                g.Reshape(in_shape.dims()).Clone()};
                          });
}

Variable Concat(const std::vector<Variable>& parts, int axis) {
  MG_CHECK(!parts.empty());
  std::vector<Tensor> values;
  std::vector<int64_t> sizes;
  values.reserve(parts.size());
  for (const Variable& p : parts) {
    values.push_back(p.value());
    sizes.push_back(p.value().Dim(axis));
  }
  return Variable::MakeOp("Concat", t::Concat(values, axis), parts,
                          [axis, sizes](const Tensor& g) {
                            return t::Split(g, axis, sizes);
                          });
}

Variable SliceCols(const Variable& a, int64_t start, int64_t len) {
  Tensor av = a.value();
  MG_CHECK_EQ(av.Rank(), 2);
  const int64_t rows = av.Dim(0), cols = av.Dim(1);
  return Variable::MakeOp(
      "SliceCols", t::SliceCols(av, start, len), {a},
      [rows, cols, start, len](const Tensor& g) {
        Tensor da(Shape{rows, cols});
        float* pd = da.data();
        const float* pg = g.data();
        for (int64_t i = 0; i < rows; ++i) {
          for (int64_t j = 0; j < len; ++j) {
            pd[i * cols + start + j] = pg[i * len + j];
          }
        }
        return std::vector<Tensor>{std::move(da)};
      });
}

Variable ChannelsToLast(const Variable& a) {
  Tensor av = a.value();
  MG_CHECK_EQ(av.Rank(), 4, "ChannelsToLast expects NCHW");
  const int64_t n = av.Dim(0), c = av.Dim(1), h = av.Dim(2), w = av.Dim(3);
  Tensor out(Shape{n * h * w, c});
  {
    const float* p = av.data();
    float* po = out.data();
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t ch = 0; ch < c; ++ch) {
        for (int64_t y = 0; y < h; ++y) {
          for (int64_t x = 0; x < w; ++x) {
            po[(((b * h + y) * w) + x) * c + ch] =
                p[((b * c + ch) * h + y) * w + x];
          }
        }
      }
    }
  }
  return Variable::MakeOp(
      "ChannelsToLast", out, {a}, [n, c, h, w](const Tensor& g) {
        Tensor da(Shape{n, c, h, w});
        const float* pg = g.data();
        float* pd = da.data();
        for (int64_t b = 0; b < n; ++b) {
          for (int64_t ch = 0; ch < c; ++ch) {
            for (int64_t y = 0; y < h; ++y) {
              for (int64_t x = 0; x < w; ++x) {
                pd[((b * c + ch) * h + y) * w + x] =
                    pg[(((b * h + y) * w) + x) * c + ch];
              }
            }
          }
        }
        return std::vector<Tensor>{std::move(da)};
      });
}

Variable GatherRows(const Variable& table, std::vector<int64_t> indices) {
  Tensor tv = table.value();
  const int64_t num_rows = tv.Dim(0);
  // Evaluate the forward gather before the lambda capture moves `indices`
  // (function-argument evaluation order is unspecified).
  Tensor gathered = t::GatherRows(tv, indices);
  return Variable::MakeOp(
      "GatherRows", std::move(gathered), {table},
      [indices = std::move(indices), num_rows](const Tensor& g) {
        return std::vector<Tensor>{t::ScatterAddRows(g, indices, num_rows)};
      });
}

Variable SumAll(const Variable& a) {
  Shape in_shape = a.value().shape();
  Tensor out = Tensor::FromVector(Shape{1}, {t::SumAll(a.value())});
  return Variable::MakeOp("SumAll", out, {a}, [in_shape](const Tensor& g) {
    return std::vector<Tensor>{Tensor::Full(in_shape, g[0])};
  });
}

Variable MeanAll(const Variable& a) {
  Shape in_shape = a.value().shape();
  const float inv_n = 1.0f / static_cast<float>(in_shape.NumElements());
  Tensor out = Tensor::FromVector(Shape{1}, {t::MeanAll(a.value())});
  return Variable::MakeOp("MeanAll", out, {a},
                          [in_shape, inv_n](const Tensor& g) {
                            return std::vector<Tensor>{
                                Tensor::Full(in_shape, g[0] * inv_n)};
                          });
}

Variable SumAxis(const Variable& a, int axis, bool keepdims) {
  Shape in_shape = a.value().shape();
  return Variable::MakeOp(
      "SumAxis", t::Sum(a.value(), axis, keepdims), {a},
      [in_shape, axis, keepdims](const Tensor& g) {
        // Broadcast the upstream gradient back over the reduced axis.
        Tensor gk = g;
        if (!keepdims) {
          std::vector<int64_t> dims = in_shape.dims();
          dims[axis] = 1;
          gk = g.Reshape(dims);
        }
        // Expand by adding a ones tensor of the input shape (broadcast).
        Tensor expanded = t::Add(gk, Tensor::Zeros(in_shape));
        return std::vector<Tensor>{std::move(expanded)};
      });
}

Variable MeanAxis(const Variable& a, int axis, bool keepdims) {
  const float inv = 1.0f / static_cast<float>(a.value().Dim(axis));
  return MulScalar(SumAxis(a, axis, keepdims), inv);
}

Variable SoftmaxRows(const Variable& a) {
  Tensor out = t::SoftmaxRows(a.value());
  return Variable::MakeOp("SoftmaxRows", out, {a}, [out](const Tensor& g) {
    // ds = s ⊙ (g − Σ_j g_j s_j), row-wise.
    const int64_t n = out.Dim(0), c = out.Dim(1);
    Tensor da(out.shape());
    const float* s = out.data();
    const float* pg = g.data();
    float* pd = da.data();
    for (int64_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (int64_t j = 0; j < c; ++j) dot += double(pg[i * c + j]) * s[i * c + j];
      for (int64_t j = 0; j < c; ++j) {
        pd[i * c + j] = s[i * c + j] * (pg[i * c + j] - float(dot));
      }
    }
    return std::vector<Tensor>{std::move(da)};
  });
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             std::vector<int64_t> labels) {
  Tensor lv = logits.value();
  MG_CHECK_EQ(lv.Rank(), 2);
  const int64_t n = lv.Dim(0), c = lv.Dim(1);
  MG_CHECK_EQ(n, static_cast<int64_t>(labels.size()),
              "SoftmaxCrossEntropy label count");
  Tensor log_probs = t::LogSoftmaxRows(lv);
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = labels[i];
    MG_CHECK_GE(y, 0);
    MG_CHECK_LT(y, c, "label out of range");
    loss -= log_probs.data()[i * c + y];
  }
  Tensor out =
      Tensor::FromVector(Shape{1}, {static_cast<float>(loss / n)});
  Tensor probs = t::SoftmaxRows(lv);
  return Variable::MakeOp(
      "SoftmaxCrossEntropy", out, {logits},
      [probs, labels = std::move(labels), n, c](const Tensor& g) {
        Tensor da = probs.Clone();
        float* pd = da.data();
        for (int64_t i = 0; i < n; ++i) pd[i * c + labels[i]] -= 1.0f;
        t::ScaleInPlace(da, g[0] / static_cast<float>(n));
        return std::vector<Tensor>{std::move(da)};
      });
}

Variable BceWithLogits(const Variable& logits, Tensor targets) {
  Tensor lv = logits.value();
  MG_CHECK(lv.shape() == targets.shape(), "BceWithLogits shape mismatch: ",
           lv.shape().ToString(), " vs ", targets.shape().ToString());
  const int64_t n = lv.NumElements();
  MG_CHECK_GT(n, 0);
  const float* x = lv.data();
  const float* y = targets.data();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    // max(x,0) - x*y + log(1 + exp(-|x|)), the standard stable form.
    loss += std::max(x[i], 0.0f) - x[i] * y[i] +
            std::log1p(std::exp(-std::fabs(x[i])));
  }
  Tensor out = Tensor::FromVector(Shape{1}, {static_cast<float>(loss / n)});
  return Variable::MakeOp(
      "BceWithLogits", out, {logits},
      [lv, targets = std::move(targets), n](const Tensor& g) {
        Tensor da = t::Sub(t::Sigmoid(lv), targets);
        t::ScaleInPlace(da, g[0] / static_cast<float>(n));
        return std::vector<Tensor>{std::move(da)};
      });
}

Variable MseLoss(const Variable& pred, Tensor target) {
  Tensor pv = pred.value();
  MG_CHECK(pv.shape() == target.shape(), "MseLoss shape mismatch: ",
           pv.shape().ToString(), " vs ", target.shape().ToString());
  Tensor diff = t::Sub(pv, target);
  const int64_t n = pv.NumElements();
  const float mse = t::Dot(diff, diff) / static_cast<float>(n);
  Tensor out = Tensor::FromVector(Shape{1}, {mse});
  return Variable::MakeOp(
      "MseLoss", out, {pred}, [diff, n](const Tensor& g) {
        Tensor da = t::MulScalar(diff, 2.0f * g[0] / static_cast<float>(n));
        return std::vector<Tensor>{std::move(da)};
      });
}

Variable L1Loss(const Variable& pred, Tensor target) {
  Tensor pv = pred.value();
  MG_CHECK(pv.shape() == target.shape(), "L1Loss shape mismatch");
  Tensor diff = t::Sub(pv, target);
  const int64_t n = pv.NumElements();
  const float mae = t::SumAll(t::Abs(diff)) / static_cast<float>(n);
  Tensor out = Tensor::FromVector(Shape{1}, {mae});
  return Variable::MakeOp(
      "L1Loss", out, {pred}, [diff, n](const Tensor& g) {
        Tensor da = t::MulScalar(t::Sign(diff), g[0] / static_cast<float>(n));
        return std::vector<Tensor>{std::move(da)};
      });
}

Variable Conv2d(const Variable& input, const Variable& weight,
                const Variable& bias, const tops::Conv2dSpec& spec) {
  Tensor xv = input.value();
  Tensor wv = weight.value();
  Tensor bv = bias.value();
  MG_CHECK_EQ(xv.Rank(), 4, "Conv2d input must be NCHW");
  const int64_t n = xv.Dim(0), c = xv.Dim(1), h = xv.Dim(2), w = xv.Dim(3);
  MG_CHECK_EQ(c, spec.in_channels);
  MG_CHECK(wv.shape() == Shape({spec.out_channels, spec.in_channels,
                                spec.kernel, spec.kernel}),
           "Conv2d weight shape ", wv.shape().ToString());
  MG_CHECK(bv.shape() == Shape({spec.out_channels}), "Conv2d bias shape");
  const int64_t oh = spec.OutDim(h), ow = spec.OutDim(w);
  const int64_t l = oh * ow;
  const int64_t patch = c * spec.kernel * spec.kernel;
  const int64_t f = spec.out_channels;

  // Cache the im2col buffers for the backward pass. Samples write disjoint
  // `cols` and `out` slices, so the batch loop parallelizes bit-identically.
  MG_TRACE_SCOPE("conv.forward");
  auto cols = std::make_shared<std::vector<float>>(
      static_cast<size_t>(n) * patch * l);
  Tensor out(Shape{n, f, oh, ow});
  ParallelFor(0, n, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      MG_TRACE_SCOPE("conv.im2col_sample");
      float* col = cols->data() + b * patch * l;
      tops::Im2Col(xv.data() + b * c * h * w, spec, h, w, col);
      // out_b [f, l] = W [f, patch] * col [patch, l]
      Gemm(false, false, f, l, patch, 1.0f, wv.data(), patch, col, l, 0.0f,
           out.data() + b * f * l, l);
      // add bias
      float* ob = out.data() + b * f * l;
      for (int64_t ch = 0; ch < f; ++ch) {
        const float bval = bv.data()[ch];
        for (int64_t i = 0; i < l; ++i) ob[ch * l + i] += bval;
      }
    }
  });

  // As in MatMul: an input that needs no gradient (the image) gets none,
  // so its GEMMs and Col2Im, and the weight copy only they read, go.
  const bool need_x = input.requires_grad();
  if (!need_x) wv = Tensor();
  return Variable::MakeOp(
      "Conv2d", out, {input, weight, bias},
      [cols, spec, n, c, h, w, l, patch, f, wv, need_x](const Tensor& g) {
        MG_TRACE_SCOPE("conv.backward");
        Tensor dx;
        Tensor dw(Shape{f, c, spec.kernel, spec.kernel});
        Tensor db(Shape{f});
        // dx: each sample owns a disjoint [c,h,w] slice and a col_grad
        // scratch from its worker's arena (the nested Gemm opens an inner
        // scope on the same arena), so the batch loop parallelizes
        // bit-identically with zero steady-state heap allocations.
        if (need_x) {
          dx = Tensor(Shape{n, c, h, w});
          ParallelFor(0, n, 1, [&](int64_t b0, int64_t b1) {
            ScratchScope scope;
            float* col_grad =
                scope.AllocFloats(static_cast<size_t>(patch) * l);
            for (int64_t b = b0; b < b1; ++b) {
              MG_TRACE_SCOPE("conv.backward_sample");
              const float* gb = g.data() + b * f * l;
              // col_grad = W^T [patch, f] * g_b [f, l]; beta == 0
              // overwrites every element, so the buffer needs no clearing
              // between samples.
              Gemm(true, false, patch, l, f, 1.0f, wv.data(), patch, gb, l,
                   0.0f, col_grad, l);
              tops::Col2Im(col_grad, spec, h, w, dx.data() + b * c * h * w);
            }
          });
        }
        // dW/db accumulate across samples; the loop stays serial in b so the
        // accumulation order is fixed (bit-reproducible for any pool size),
        // while each sample's GEMM still parallelizes over its rows.
        for (int64_t b = 0; b < n; ++b) {
          const float* gb = g.data() + b * f * l;
          const float* col = cols->data() + b * patch * l;
          // dW += g_b [f, l] * col^T [l, patch]
          Gemm(false, true, f, patch, l, 1.0f, gb, l, col, l, 1.0f, dw.data(),
               patch);
          // db += row sums of g_b
          for (int64_t ch = 0; ch < f; ++ch) {
            double s = 0.0;
            for (int64_t i = 0; i < l; ++i) s += gb[ch * l + i];
            db.data()[ch] += static_cast<float>(s);
          }
        }
        return std::vector<Tensor>{std::move(dx), std::move(dw),
                                   std::move(db)};
      });
}

}  // namespace autograd
}  // namespace mocograd
