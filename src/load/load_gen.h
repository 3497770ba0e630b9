// Open-loop load generator on the simulated EventLoop: every arrival is one
// posted loop event producing one lightweight LoadRequest record, so
// millions of simulated users cost one id draw per request — no threads, no
// per-user state. Open loop means arrivals never wait for responses: the
// generator holds its configured rate even when the dispatcher saturates,
// which is what keeps tail latencies honest under overload.
//
// Arrivals are homogeneous Poisson: i.i.d. exponential gaps at
// LoadConfig::rate_rps, drawn from one SplitMix64 stream seeded with
// LoadConfig::seed, so a (config, seed) pair reproduces the arrival
// sequence exactly — the statistical oracle in tests/load_test.cc relies on
// that.

#ifndef SRC_LOAD_LOAD_GEN_H_
#define SRC_LOAD_LOAD_GEN_H_

#include <cstdint>
#include <functional>

#include "src/core/system.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"

namespace nephele {

// One request: who asked, when. The record is all there is to a simulated
// user — the population size only scales the id space.
struct LoadRequest {
  std::uint64_t id = 0;
  std::uint64_t user = 0;
  SimTime arrival;
};

class LoadGenerator {
 public:
  using Sink = std::function<void(const LoadRequest&)>;

  LoadGenerator(EventLoop& loop, const LoadConfig& config, MetricsRegistry& metrics);
  // Convenience: loop, knobs and registry from the host.
  explicit LoadGenerator(Host& host)
      : LoadGenerator(host.loop(), host.config().load, host.metrics()) {}

  // Emits arrivals into `sink` from now until `duration` has elapsed (or
  // Stop()). Draining the loop then plays out the whole run.
  void Start(SimDuration duration, Sink sink);
  void Stop() { running_ = false; }

  std::uint64_t generated() const { return generated_; }

 private:
  // The gap from the previous arrival to the next one. Always >= 1 ns, so
  // two arrivals never collapse onto the same loop instant.
  SimDuration NextGap();
  void ScheduleNext();

  EventLoop& loop_;
  LoadConfig config_;
  Rng arrival_rng_;
  Rng user_rng_;
  Counter& c_generated_;
  Histogram& h_interarrival_;
  Sink sink_;
  SimTime next_;
  SimTime end_;
  bool running_ = false;
  std::uint64_t generated_ = 0;
};

}  // namespace nephele

#endif  // SRC_LOAD_LOAD_GEN_H_
