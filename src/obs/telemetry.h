#ifndef MOCOGRAD_OBS_TELEMETRY_H_
#define MOCOGRAD_OBS_TELEMETRY_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"

namespace mocograd {
namespace obs {

/// One ordered-pair decision reported by a gradient aggregator: task i was
/// inspected against task j, the pair conflicted, and (when `acted`) the
/// method applied a repair of the given magnitude — MoCoGrad's Eq. 8 scale
/// `λ·‖g_j‖/‖m_j‖`, PCGrad's projection coefficient, GradVac's α.
struct PairDecision {
  int i = 0;
  int j = 0;
  /// cos φ_ij observed at decision time. NaN when the method's test runs on
  /// an already-repaired g_i and a raw cosine is not available (PCGrad,
  /// GradVac project in sequence).
  double cosine = 0.0;
  /// Method-specific repair magnitude; 0 when the pair was only detected.
  double magnitude = 0.0;
  /// True when the method changed a gradient because of this pair.
  bool acted = false;
};

/// Per-step decision trace filled by GradientAggregator::Aggregate through
/// AggregationContext::trace. Observation-only by the same contract as
/// PhaseProfile: aggregators may record into it but must never change any
/// computed value, RNG draw, or accumulation order because of it. The
/// trainer re-uses a single instance across steps (Begin clears it), so
/// steady-state recording does not allocate.
class AggregatorTrace {
 public:
  /// Starts a fresh step: clears prior state, remembers the method name and
  /// task count, and marks every pairwise cosine unknown.
  void Begin(const std::string& method, int num_tasks);

  const std::string& method() const { return method_; }
  int num_tasks() const { return num_tasks_; }

  /// Records one inspected pair (see PairDecision). Pass NaN for `cosine`
  /// when the raw cosine is unknown.
  void RecordPair(int i, int j, double cosine, double magnitude, bool acted);

  /// Upgrades an already-recorded (i, j) pair to acted with the given
  /// magnitude — for methods that pick one partner after scanning all of
  /// them (MoCoGrad chooses the last conflicting partner in shuffle order).
  void MarkActed(int i, int j, double magnitude);

  const std::vector<PairDecision>& pairs() const { return pairs_; }

  /// Publishes the raw pairwise cosine cos φ_ij (both symmetric cells).
  /// Aggregators that already compute all pairwise dot products (MoCoGrad)
  /// or a Gram matrix (CAGrad, MGDA, Nash-MTL, IMTL, AlignedMTL) publish
  /// them here so the trainer's conflict statistics can skip their own
  /// O(K²·P) recomputation.
  void SetCosine(int i, int j, double cosine);

  /// Publishes every pairwise cosine from a K×K Gram matrix
  /// (cos = Gᵢⱼ/√(Gᵢᵢ·Gⱼⱼ); ~zero-norm rows get cosine 0 like
  /// core::CosineSimilarity).
  void SetCosinesFromGram(const std::vector<std::vector<double>>& gram);

  /// True when every i<j pairwise cosine has been published this step
  /// (trivially true for K < 2).
  bool cosines_complete() const {
    return known_cosines_ == num_tasks_ * (num_tasks_ - 1) / 2;
  }

  /// cos φ_ij; NaN when not published. i == j returns 1.
  double cosine(int i, int j) const;

  /// The full K×K cosine matrix (row-major, diagonal 1, NaN = unknown).
  const std::vector<double>& cosine_matrix() const { return cosines_; }

  /// Inner-solver iteration count (CAGrad PGD, Nash-MTL fixed point, ...);
  /// 0 when the method has no inner solver.
  void set_solver_iterations(int64_t n) { solver_iterations_ = n; }
  int64_t solver_iterations() const { return solver_iterations_; }

  /// Combination weights produced by a solver / weighting rule (per task).
  void set_solver_weights(const std::vector<double>& w) {
    solver_weights_ = w;
  }
  const std::vector<double>& solver_weights() const { return solver_weights_; }

  /// Per-task ‖g_i‖ / ‖m_i‖, published by methods that already computed
  /// them (MoCoGrad's norms phase). Empty when not published.
  void set_grad_norms(const std::vector<double>& v) { grad_norms_ = v; }
  const std::vector<double>& grad_norms() const { return grad_norms_; }
  void set_momentum_norms(const std::vector<double>& v) {
    momentum_norms_ = v;
  }
  const std::vector<double>& momentum_norms() const { return momentum_norms_; }

  /// Named scalar extras (e.g. "graddrop.keep_positive_frac").
  void AddStat(const std::string& name, double value);
  const std::vector<std::pair<std::string, double>>& stats() const {
    return stats_;
  }

 private:
  std::string method_;
  int num_tasks_ = 0;
  int known_cosines_ = 0;
  std::vector<PairDecision> pairs_;
  std::vector<double> cosines_;  // K×K, NaN = unknown
  std::vector<double> solver_weights_;
  std::vector<double> grad_norms_;
  std::vector<double> momentum_norms_;
  std::vector<std::pair<std::string, double>> stats_;
  int64_t solver_iterations_ = 0;
};

/// One anomaly detected by the training watchdog (src/mtl/watchdog.h).
struct WatchdogEvent {
  int64_t step = 0;
  /// "nonfinite_loss" | "nonfinite_grad" | "loss_divergence" |
  /// "grad_explosion".
  std::string kind;
  /// Task index the event concerns; -1 for the aggregated gradient.
  int task = -1;
  /// Observed value (the loss, the gradient norm, the non-finite count).
  double value = 0.0;
  /// Threshold the value breached (0 for non-finite sentinels).
  double threshold = 0.0;
};

/// Everything one sampled step contributes to the telemetry stream. The
/// trainer fills it from values it already has; fields left empty are
/// omitted from the serialized record.
struct TelemetryRecord {
  int64_t step = 0;
  std::string method;
  std::vector<float> losses;
  std::vector<double> grad_norms;
  std::vector<double> momentum_norms;
  std::vector<float> task_weights;
  /// K×K pairwise cosine matrix (row-major, NaN = unknown); empty when no
  /// source computed it this step.
  std::vector<double> cosines;
  int num_tasks = 0;
  /// Summary conflict statistics (mean/max GCD = 1 − cos over i<j pairs).
  double mean_gcd = 0.0;
  double max_gcd = 0.0;
  int num_conflicting_pairs = 0;
  int num_pairs = 0;
  /// Aggregator decision trace for this step (borrowed; may be null).
  const AggregatorTrace* trace = nullptr;
  /// Per-phase wall-clock seconds of this step (borrowed; null or empty =
  /// omitted).
  const PhaseProfile* phase = nullptr;
};

/// Appends typed training-dynamics records as JSONL — the process's one
/// per-step observation channel (docs/OBSERVABILITY.md "Conflict
/// telemetry"). Observation-only: writing a record never touches RNG
/// streams or any computed value. Two record shapes share the file,
/// discriminated by a "type" key: "step" (TelemetryRecord plus the metrics
/// registry's counter deltas and kernel histograms) and "watchdog"
/// (WatchdogEvent).
class TelemetrySink {
 public:
  /// Opens `path` in append mode ("-" = stdout): one process may run
  /// several training loops against the same path. `every` is the sampling
  /// stride (record steps where step % every == 0). A successful open turns
  /// metrics collection on (obs::SetMetricsEnabled) and takes the counter
  /// baseline the first record's deltas are measured from.
  TelemetrySink(const std::string& path, int every);
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  int every() const { return every_; }

  /// True when `step` falls on the sampling stride.
  bool ShouldSample(int64_t step) const { return step % every_ == 0; }

  /// Appends one {"type":"step",...} record. Besides `record`'s fields it
  /// carries "counters" (the delta of each registered counter since this
  /// sink's previous record; zero deltas omitted) and "kernels" (cumulative
  /// {count,p50,p99} per populated histogram; omitted while all are empty).
  void WriteRecord(const TelemetryRecord& record);

  /// Appends one {"type":"watchdog",...} record (watchdog events are never
  /// sampled away — an anomaly on an unsampled step still gets a line).
  void WriteWatchdogEvent(const std::string& method, const WatchdogEvent& ev);

 private:
  std::FILE* file_ = nullptr;  // set once in the ctor, then read-only
  bool owns_file_ = false;
  Status status_;
  int every_ = 1;
  // Serializes the stream writes: each record is serialized into a local
  // buffer first, then appended with a single fwrite under mu_, so records
  // from concurrent writers (trainer + watchdog) never interleave bytes.
  Mutex mu_;
  // Counter values at the previous step record (name-sorted).
  std::vector<MetricSample> prev_counters_ MG_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace mocograd

#endif  // MOCOGRAD_OBS_TELEMETRY_H_
