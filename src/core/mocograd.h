#ifndef MOCOGRAD_CORE_MOCOGRAD_H_
#define MOCOGRAD_CORE_MOCOGRAD_H_

#include <string>
#include <vector>

#include "core/aggregator.h"

namespace mocograd {
namespace core {

/// Options for the MoCoGrad aggregator (paper §IV-B). The two ablation
/// switches below deviate from the paper and exist for the ablation bench
/// (bench_paper ablation): they isolate how much of MoCoGrad's behavior
/// comes from the momentum direction and from the single-partner rule.
struct MoCoGradOptions {
  /// λ in Eq. (8): calibration strength, λ ∈ (0, 1]. The paper's parameter
  /// study (Fig. 9) finds λ ≈ 0.12 optimal on Office-Home.
  float lambda = 0.12f;
  /// β₁ in Eq. (9): exponential decay rate of the per-task momentum.
  float beta1 = 0.9f;
  /// Ablation: calibrate with the *raw* current gradient g_j instead of the
  /// momentum m_j. This reduces MoCoGrad to a GradVac-like additive repair
  /// and removes the paper's de-noising argument.
  bool use_raw_gradient = false;
  /// Ablation: accumulate one calibration term per conflicting partner
  /// instead of the single (last random) partner of Algorithm 1. Breaks the
  /// Theorem 1 bound for K ≥ 3.
  bool accumulate_all_conflicts = false;
};

/// Momentum-calibrated Conflicting Gradients (MoCoGrad), the paper's
/// contribution (Algorithm 1).
///
/// For every ordered pair (i, j) with conflicting gradients (GCD(g_i,g_j) >
/// 1, i.e. negative cosine), the conflicting gradient is calibrated with the
/// *momentum* of the other task — an EMA of its historical gradients — scaled
/// to the magnitude of the current gradient:
///
///   ĝ_i = g_i + λ · (‖g_j‖ / ‖m_j^{t-1}‖) · m_j^{t-1}        (Eq. 8)
///   m_j^{t} = β₁ · m_j^{t-1} + (1−β₁) · g_j                   (Eq. 9)
///
/// Using the momentum instead of the raw gradient de-noises the calibration
/// direction against mini-batch noise, which is the paper's core argument
/// against PCGrad/GradVac-style current-gradient-only surgery.
///
/// Three documented clean-ups of the paper's pseudo-code (see DESIGN.md §3):
/// momenta are updated once per step (not once per ordered pair); at cold
/// start (‖m_j‖ ≈ 0) the calibration term degenerates to λ·g_j; and when a
/// task has several conflicting partners the calibration uses one uniformly
/// random partner (line 10 sets, not accumulates — the reading under which
/// Theorem 1's ‖ĝ‖ ≤ K(1+λ)G bound holds).
class MoCoGrad : public GradientAggregator {
 public:
  explicit MoCoGrad(MoCoGradOptions options = {});

  std::string name() const override { return "mocograd"; }
  AggregationResult Aggregate(const AggregationContext& ctx) override;
  void Reset() override;

  const MoCoGradOptions& options() const { return options_; }

  /// Momentum buffer of task k (empty before the first step); exposed for
  /// tests and analysis tooling.
  const std::vector<float>& momentum(int k) const;

 private:
  MoCoGradOptions options_;
  /// One momentum buffer per task, lazily sized on the first Aggregate.
  std::vector<std::vector<float>> momenta_;
};

}  // namespace core
}  // namespace mocograd

#endif  // MOCOGRAD_CORE_MOCOGRAD_H_
