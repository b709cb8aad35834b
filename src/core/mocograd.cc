#include "core/mocograd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/thread_pool.h"
#include "base/vec_ops.h"
#include "core/conflict.h"

namespace mocograd {
namespace core {

namespace {
constexpr double kNormEps = 1e-12;
// Minimum floats per chunk of the per-task momentum loops, so small
// matrices stay on the calling thread.
constexpr int64_t kTaskLoopGrain = int64_t{1} << 15;
// Minimum columns per chunk when the calibration terms are applied.
constexpr int64_t kColumnGrain = int64_t{1} << 12;
}  // namespace

MoCoGrad::MoCoGrad(MoCoGradOptions options) : options_(options) {
  MG_CHECK_GT(options_.lambda, 0.0f, "lambda must be in (0, 1]");
  MG_CHECK_LE(options_.lambda, 1.0f, "lambda must be in (0, 1]");
  MG_CHECK_GE(options_.beta1, 0.0f);
  MG_CHECK_LT(options_.beta1, 1.0f);
}

void MoCoGrad::Reset() { momenta_.clear(); }

const std::vector<float>& MoCoGrad::momentum(int k) const {
  MG_CHECK_GE(k, 0);
  MG_CHECK_LT(k, static_cast<int>(momenta_.size()), "momentum not initialized");
  return momenta_[k];
}

AggregationResult MoCoGrad::Aggregate(const AggregationContext& ctx) {
  MG_CHECK(ctx.task_grads != nullptr);
  MG_CHECK(ctx.rng != nullptr, "MoCoGrad shuffles task order; rng required");
  const GradMatrix& g = *ctx.task_grads;
  const int k = g.num_tasks();
  const int64_t p = g.dim();

  if (momenta_.empty()) {
    momenta_.assign(k, std::vector<float>(p, 0.0f));
  }
  MG_CHECK_EQ(static_cast<int>(momenta_.size()), k,
              "task count changed across steps; call Reset()");

  // One Gram pass gives every pairwise dot of the GCD test and the gradient
  // norms (its diagonal), each memcmp-equal to RowDot.
  std::vector<std::vector<double>> gram;
  {
    obs::ScopedPhase gram_phase(ctx.profile, "gram");
    gram = g.Gram();
  }
  std::vector<double> g_norm(k), m_norm(k);
  for (int i = 0; i < k; ++i) g_norm[i] = std::sqrt(gram[i][i]);
  // Momentum rows are independent, so splitting the per-task loops across
  // the pool is bitwise-safe.
  const int64_t task_grain = std::max<int64_t>(1, kTaskLoopGrain / p);
  {
    obs::ScopedPhase norms_phase(ctx.profile, "norms");
    ParallelFor(0, k, task_grain, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        m_norm[t] = std::sqrt(vec::SquaredNormF64(p, momenta_[t].data()));
      }
    });
  }
  if (ctx.trace != nullptr) {
    ctx.trace->set_grad_norms(g_norm);
    ctx.trace->set_momentum_norms(m_norm);
  }

  AggregationResult out;
  out.shared_grad.assign(p, 0.0f);
  out.task_weights = OnesWeights(k);

  // Calibrate each task against the others in random order (Algorithm 1).
  // Line 10 of the pseudo-code *sets* ĝ_i = g_i + λ(‖g_j‖/‖m_j‖)m_j (it does
  // not accumulate), so with several conflicting partners the last one in
  // the random order provides the calibration — equivalently, a uniformly
  // random conflicting partner. This is what makes Theorem 1's ‖ĝ‖ ≤
  // K(1+λ)G bound hold (exactly one calibration term per task).
  //
  // The sweep below only decides: it lists the terms of Σ_i ĝ_i in the
  // order they are applied (task i's own gradient, its calibration term),
  // and a column-parallel pass then applies the list to each column in that
  // order, so every output element sees the same sequence of adds and fused
  // multiply-adds as a per-task loop would. At most k terms per task.
  struct Term {
    const float* src;
    float scale;
    bool plain_add;  // out += src rather than out += scale · src
  };
  std::vector<Term> terms(static_cast<size_t>(k) * k);
  int64_t num_terms = 0;
  // Lists the Eq. (8) calibration term for partner j and returns its scale
  // λ·‖g_j‖/‖m_j‖ (0 when there is nothing to add).
  auto add_calibration = [&](int j) -> double {
    // Cold start (‖m_j‖ ≈ 0) falls back to the raw gradient g_j, the
    // history-free limit of Eq. (9).
    const float* dir;
    double dir_norm;
    if (!options_.use_raw_gradient && m_norm[j] > kNormEps) {
      dir = momenta_[j].data();
      dir_norm = m_norm[j];
    } else {
      dir = g.Row(j);
      dir_norm = g_norm[j];
    }
    if (dir_norm <= kNormEps) return 0.0;  // zero gradient: nothing to add
    const float scale =
        static_cast<float>(options_.lambda * g_norm[j] / dir_norm);
    terms[num_terms++] = {dir, scale, false};
    return scale;
  };

  {
    obs::ScopedPhase calibrate_phase(ctx.profile, "calibrate");
    std::vector<int> others(k);
    std::iota(others.begin(), others.end(), 0);
    // MG_HOT_PATH — the O(K²·p) conflict/calibration sweep; all vector
    // arithmetic goes through the vec:: kernels, no allocation.
    for (int i = 0; i < k; ++i) {
      int chosen = -1;
      ctx.rng->Shuffle(others);
      for (int j : others) {
        if (j == i) continue;
        // GCD(g_i, g_j) > 1 ⇔ g_i · g_j < 0 (Definition 3); the dot product
        // is the numerically robust form of the test.
        const double dot = gram[i][j];
        if (ctx.trace != nullptr) {
          // The sweep visits every ordered pair, so MoCoGrad publishes the
          // complete raw cosine matrix for free (the zero-norm convention of
          // AggregatorTrace::SetCosinesFromGram).
          const double denom = g_norm[i] * g_norm[j];
          ctx.trace->SetCosine(i, j, denom < kNormEps ? 0.0 : dot / denom);
        }
        if (dot >= 0.0) continue;
        ++out.num_conflicts;
        if (options_.accumulate_all_conflicts) {
          const double scale = add_calibration(j);
          if (ctx.trace != nullptr) {
            ctx.trace->RecordPair(i, j, ctx.trace->cosine(i, j), scale,
                                  scale != 0.0);
          }
        } else {
          chosen = j;
          if (ctx.trace != nullptr) {
            ctx.trace->RecordPair(i, j, ctx.trace->cosine(i, j), 0.0, false);
          }
        }
      }
      terms[num_terms++] = {g.Row(i), 1.0f, true};
      // Eq. (8): ĝ_i = g_i + λ (‖g_j‖/‖m_j‖) m_j for the chosen partner.
      if (chosen >= 0) {
        const double scale = add_calibration(chosen);
        if (ctx.trace != nullptr && scale != 0.0) {
          ctx.trace->MarkActed(i, chosen, scale);
        }
      }
    }
    float* sum = out.shared_grad.data();
    ParallelFor(0, p, kColumnGrain, [&](int64_t c0, int64_t c1) {
      for (int64_t t = 0; t < num_terms; ++t) {
        const Term& term = terms[t];
        if (term.plain_add) {
          vec::Add(c1 - c0, term.src + c0, sum + c0);
        } else {
          vec::Axpy(c1 - c0, term.scale, term.src + c0, sum + c0);
        }
      }
    });
    // MG_HOT_PATH_END
  }

  // Eq. (9): one EMA update per task per step.
  {
    obs::ScopedPhase momentum_phase(ctx.profile, "momentum");
    const float b1 = options_.beta1;
    ParallelFor(0, k, task_grain, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        vec::Ema(p, b1, g.Row(static_cast<int>(t)), momenta_[t].data());
      }
    });
  }
  return out;
}

}  // namespace core
}  // namespace mocograd
