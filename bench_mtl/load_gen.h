#ifndef MOCOGRAD_BENCH_MTL_LOAD_GEN_H_
#define MOCOGRAD_BENCH_MTL_LOAD_GEN_H_

// Request generators for the serving phases.
//
// Open loop: independent users arrive on a Poisson schedule built from a
// seed, and each request is timed from when it was *due*, so a stall is
// charged to every request it delays. Closed loop: each client sends its
// next request only after the previous one returned, which measures
// capacity. Clients sleep until shortly before a due time and then spin:
// a plain sleep_until wakes tens of microseconds late, and that delay
// would otherwise be charged to the server. How late the generator still
// ran is recorded per request.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "base/rng.h"

namespace mocograd {
namespace bench {

using LoadClock = std::chrono::steady_clock;

/// Client threads a generator uses: at most 4, and never more than the
/// host's hardware threads.
inline int ClientThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1, 4));
}

/// Arrival times (seconds from the start) of a Poisson process at `rate`
/// per second over [0, duration_s).
inline std::vector<double> PoissonSchedule(double rate, double duration_s,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // Uniform double in [0, 1) from the top 53 bits; -ln(1-u)/rate is an
    // exponential inter-arrival gap.
    const double u =
        static_cast<double>(rng.NextUint64() >> 11) * 0x1.0p-53;
    t += -std::log(1.0 - u) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

/// Sleeping stops this long before a due time; the rest is spun. Covers
/// the scheduler's wake-up delay while keeping the spin short.
constexpr std::chrono::microseconds kSpinWindow{200};

inline void WaitUntil(LoadClock::time_point due) {
  if (due - LoadClock::now() > kSpinWindow) {
    std::this_thread::sleep_until(due - kSpinWindow);
  }
  while (LoadClock::now() < due) {
  }
}

/// Timestamps of one open-loop request, in seconds from the loop's start.
/// Latency is done - due; client queueing is max(0, ready - due); the
/// generator's lateness is sent - max(due, ready).
struct RequestTimes {
  double due = 0.0;    // scheduled arrival
  double ready = 0.0;  // a client was free to take it
  double sent = 0.0;   // handed to the server
  double done = 0.0;   // the server returned
  bool ok = false;     // the output was correct
};

/// Open loop over `due`: `clients` threads take arrivals in schedule order
/// and send each at its due time, or as soon as a client is free.
/// `send(client, request)` performs one request and returns whether its
/// output was correct.
template <typename Send>
std::vector<RequestTimes> RunOpenLoop(const std::vector<double>& due,
                                      int clients, Send&& send) {
  std::vector<RequestTimes> out(due.size());
  std::atomic<size_t> next{0};
  // A short lead so every client is running before the first arrival.
  const LoadClock::time_point start =
      LoadClock::now() + std::chrono::milliseconds(2);
  const auto since_start = [start](LoadClock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = next.fetch_add(1); i < due.size();
           i = next.fetch_add(1)) {
        RequestTimes& r = out[i];
        r.due = due[i];
        r.ready = since_start(LoadClock::now());
        WaitUntil(start + std::chrono::duration_cast<LoadClock::duration>(
                              std::chrono::duration<double>(due[i])));
        const LoadClock::time_point sent = LoadClock::now();
        r.ok = send(c, static_cast<int64_t>(i));
        r.done = since_start(LoadClock::now());
        r.sent = since_start(sent);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

struct ClosedLoopResult {
  int64_t completed = 0;
  int64_t failed = 0;
  double elapsed_s = 0.0;
};

/// Closed loop: `clients` threads send back to back until `duration_s` has
/// passed; `send(client, i)` is the client's i-th request.
template <typename Send>
ClosedLoopResult RunClosedLoop(int clients, double duration_s, Send&& send) {
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> failed{0};
  const LoadClock::time_point start = LoadClock::now();
  const LoadClock::time_point stop =
      start + std::chrono::duration_cast<LoadClock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      int64_t done = 0, bad = 0;
      for (int64_t i = 0; LoadClock::now() < stop; ++i) {
        if (!send(c, i)) ++bad;
        ++done;
      }
      completed.fetch_add(done);
      failed.fetch_add(bad);
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult r;
  r.completed = completed.load();
  r.failed = failed.load();
  r.elapsed_s =
      std::chrono::duration<double>(LoadClock::now() - start).count();
  return r;
}

}  // namespace bench
}  // namespace mocograd

#endif  // MOCOGRAD_BENCH_MTL_LOAD_GEN_H_
