#include "mtl/watchdog.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/env.h"
#include "base/vec_ops.h"

namespace mocograd {
namespace mtl {

WatchdogOptions TrainingWatchdog::OptionsFromEnv() {
  WatchdogOptions opts;
  opts.enabled = GetEnvInt("MOCOGRAD_WATCHDOG", 1, 0, 1) != 0;
  opts.abort_on_event = GetEnvInt("MOCOGRAD_WATCHDOG_ABORT", 0, 0, 1) != 0;
  return opts;
}

std::vector<obs::WatchdogEvent> TrainingWatchdog::Observe(
    int64_t step, const std::vector<float>& losses,
    const std::vector<float>& aggregated_grad) {
  std::vector<obs::WatchdogEvent> events;
  if (!options_.enabled) return events;

  MutexLock lk(&mu_);
  const int k = static_cast<int>(losses.size());
  if (static_cast<int>(min_loss_.size()) != k) {
    min_loss_.assign(k, std::numeric_limits<double>::infinity());
  }
  const bool armed = steps_seen_ >= options_.warmup_steps;

  for (int t = 0; t < k; ++t) {
    const double loss = losses[t];
    if (!std::isfinite(loss)) {
      events.push_back({step, "nonfinite_loss", t, loss, 0.0});
      continue;
    }
    // Divergence is measured against the best loss *seen so far* (checked
    // before the min update so the first step can never self-trigger).
    const double floor = std::max(min_loss_[t], 1e-8);
    const double threshold = options_.loss_divergence_factor * floor;
    if (armed && loss > threshold) {
      events.push_back({step, "loss_divergence", t, loss, threshold});
    }
    min_loss_[t] = std::min(min_loss_[t], loss);
  }

  // One SIMD pass over the aggregated gradient. Float squares summed in
  // double cannot overflow, so the sum is non-finite exactly when some
  // element is; only then are the non-finite elements counted.
  const double sum2 = vec::SquaredNormF64(
      static_cast<int64_t>(aggregated_grad.size()), aggregated_grad.data());
  int64_t nonfinite = 0;
  if (!std::isfinite(sum2)) {
    for (const float v : aggregated_grad) nonfinite += !std::isfinite(v);
  }
  if (nonfinite > 0) {
    events.push_back({step, "nonfinite_grad", -1,
                      static_cast<double>(nonfinite), 0.0});
  } else {
    const double norm = std::sqrt(sum2);
    // The 1e-8 floor keeps a converged run (EMA ≈ 0) from flagging an
    // ordinary mini-batch gradient as an explosion.
    const double threshold =
        options_.grad_explosion_factor * std::max(norm_ema_, 1e-8);
    if (armed && norm_ema_valid_ && norm > threshold) {
      events.push_back({step, "grad_explosion", -1, norm, threshold});
    }
    if (norm_ema_valid_) {
      norm_ema_ = options_.norm_ema_beta * norm_ema_ +
                  (1.0 - options_.norm_ema_beta) * norm;
    } else {
      norm_ema_ = norm;
      norm_ema_valid_ = true;
    }
  }

  ++steps_seen_;
  return events;
}

void TrainingWatchdog::Reset() {
  MutexLock lk(&mu_);
  min_loss_.clear();
  norm_ema_ = 0.0;
  norm_ema_valid_ = false;
  steps_seen_ = 0;
}

}  // namespace mtl
}  // namespace mocograd
