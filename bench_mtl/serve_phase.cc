// Serving phase: open- and closed-loop traffic through the micro-batcher,
// plus engine and GEMV timings for the traced run.

#include <cmath>
#include <cstring>

#include "base/thread_pool.h"
#include "load_gen.h"
#include "phases.h"
#include "serve/batcher.h"
#include "tensor/gemm.h"

namespace mocograd {
namespace bench {

namespace {

// Median seconds of one InferenceSession::Forward over `rows` request rows.
double ForwardSeconds(const Setup& s, int64_t rows, double budget_s) {
  const serve::ServeModel& sm = *s.serve_model;
  const serve::InferenceSession session(sm);
  std::vector<float> out(static_cast<size_t>(rows * s.out_width));
  const std::vector<float*> ptrs = TaskOutputs(sm, out.data(), rows);
  int64_t next = 0;
  return MedianSecondsPerCall(
      [&] {
        const int64_t first = next++ % (kServeRows - rows + 1);
        session.Forward(s.rows.data() + first * sm.input_dim(), rows,
                        ptrs.data());
      },
      budget_s);
}

}  // namespace

void RunServing(const Workload& w, const Setup& s, const Seeds& seeds,
                double open_s, double closed_s, bool trace,
                PhaseResult* out) {
  ThreadPool::SetGlobalNumThreads(kServeThreads);
  const serve::ServeModel& sm = *s.serve_model;
  serve::BatcherOptions opts;
  opts.max_batch = kMaxBatch;
  opts.deadline_us = kDeadlineUs;
  serve::MicroBatcher batcher(sm, opts);
  const int clients = ClientThreads();
  const int64_t in = sm.input_dim();
  const int64_t width = s.out_width;

  std::vector<std::vector<float>> outputs(clients,
                                          std::vector<float>(width));
  std::vector<std::vector<float*>> task_ptrs;
  for (std::vector<float>& o : outputs) {
    task_ptrs.push_back(TaskOutputs(sm, o.data(), 1));
  }
  // One request: a served row is correct only if it equals the row's
  // single-row reference bitwise.
  const auto send = [&](int c, int64_t row) {
    batcher.Infer(s.rows.data() + row * in, task_ptrs[c].data());
    return std::memcmp(outputs[c].data(), s.refs.data() + row * width,
                       width * sizeof(float)) == 0;
  };
  const auto closed_loop = [&](double seconds) {
    return RunClosedLoop(clients, seconds, [&](int c, int64_t i) {
      return send(c, (c + static_cast<int64_t>(clients) * i) % kServeRows);
    });
  };

  // Warm the batcher, the session and the clients' scratch before timing.
  const ClosedLoopResult warm = closed_loop(std::min(0.2, 0.1 * closed_s));
  out->attempted += warm.completed;
  out->failed += warm.failed;

  const std::vector<double> due =
      PoissonSchedule(w.offered_qps, open_s, seeds.arrivals);
  const int64_t batches0 = batcher.batches_executed();
  const int64_t rows0 = batcher.rows_executed();
  const std::vector<RequestTimes> req =
      RunOpenLoop(due, clients, [&](int c, int64_t i) {
        return send(c, i % kServeRows);
      });
  const double open_rows_per_batch =
      static_cast<double>(batcher.rows_executed() - rows0) /
      std::max<int64_t>(batcher.batches_executed() - batches0, 1);

  std::vector<double> latency_us, queue_us, late_us, infer_us;
  for (const RequestTimes& r : req) {
    ++out->attempted;
    if (!r.ok) ++out->failed;
    latency_us.push_back((r.done - r.due) * 1e6);
    queue_us.push_back(std::max(0.0, r.ready - r.due) * 1e6);
    late_us.push_back((r.sent - std::max(r.due, r.ready)) * 1e6);
    infer_us.push_back((r.done - r.sent) * 1e6);
  }
  const Summary latency = Summarize(latency_us);

  const int64_t batches1 = batcher.batches_executed();
  const int64_t rows1 = batcher.rows_executed();
  const ClosedLoopResult closed = closed_loop(closed_s);
  out->attempted += closed.completed;
  out->failed += closed.failed;
  const double capacity = closed.completed / closed.elapsed_s;
  const double closed_rows_per_batch =
      static_cast<double>(batcher.rows_executed() - rows1) /
      std::max<int64_t>(batcher.batches_executed() - batches1, 1);

  out->Note("serve.clients", std::to_string(clients));
  out->Note("serve.open.requests", std::to_string(latency.n));
  out->Note("serve.open.offered_qps", std::to_string(w.offered_qps));
  out->Note("serve.tail.supported_pct",
            std::to_string(SupportedPercentile(latency.n)));
  out->Note("serve.plan_batch_invariant",
            serve::PlanIsBatchInvariant(sm.plan()) ? "true" : "false");

  if (!trace) {
    out->Add("p50_us", latency.median, "us");
    out->Add("p90_us", Quantile(latency_us, 0.90), "us");
    out->Add("capacity_qps", capacity, "1/s");
    return;
  }

  const Summary infer = Summarize(infer_us);
  const int64_t realized = std::clamp<int64_t>(
      std::llround(open_rows_per_batch), 1, kMaxBatch);
  const double probe_s = 0.02 * (open_s + closed_s);
  const double realized_us = ForwardSeconds(s, realized, probe_s) * 1e6;
  std::sort(late_us.begin(), late_us.end());

  out->Add("serve.engine.forward_b1_us", ForwardSeconds(s, 1, probe_s) * 1e6,
           "us");
  out->Add("serve.engine.forward_b4_us", ForwardSeconds(s, 4, probe_s) * 1e6,
           "us");
  out->Add("serve.batcher.infer_p50_us", infer.median, "us");
  out->Add("serve.batcher.wait_us", infer.median - realized_us, "us");
  out->Add("serve.batcher.rows_per_batch", open_rows_per_batch, "rows");
  out->Add("serve.batcher.occupancy", open_rows_per_batch / kMaxBatch,
           "ratio");
  out->Add("serve.capacity.rows_per_batch", closed_rows_per_batch, "rows");
  // A mean, not a median: requests rarely find every client busy.
  double queue_sum = 0.0;
  for (double q : queue_us) queue_sum += q;
  out->Add("serve.client.queue_mean_us",
           queue_sum / std::max<size_t>(queue_us.size(), 1), "us");
  out->Add("serve.generator.late_p99_us", Quantile(late_us, 0.99), "us");
  out->Add("serve.tail.p99_us", Quantile(latency_us, 0.99), "us");
  out->Add("serve.tail.p999_us", Quantile(latency_us, 0.999), "us");
  out->Add("serve.open.requests", static_cast<double>(latency.n), "count");

  // The rows == 1 product of the widest serving layer, on the serving pool.
  const auto [k, n] = WidestLayer(sm.plan());
  Rng rng(seeds.rows ^ 0x6e3f);
  std::vector<float> x(k), wt(k * n), y(n);
  for (float& v : x) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : wt) v = rng.Uniform(-1.0f, 1.0f);
  const double gemv = MedianSecondsPerCall(
      [&] {
        Gemm(false, false, 1, n, k, 1.0f, x.data(), k, wt.data(), n, 0.0f,
             y.data(), n);
      },
      probe_s);
  out->Add("tensor.gemv_gflops", 2.0 * n * k / gemv * 1e-9, "GFLOP/s");
}

}  // namespace bench
}  // namespace mocograd
