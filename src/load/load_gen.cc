#include "src/load/load_gen.h"

#include <cmath>
#include <utility>

namespace nephele {

LoadGenerator::LoadGenerator(EventLoop& loop, const LoadConfig& config,
                             MetricsRegistry& metrics)
    : loop_(loop),
      config_(config),
      arrival_rng_(config.seed),
      // A distinct stream for user draws, so the arrival sequence does not
      // depend on whether anyone reads the user ids.
      user_rng_(config.seed ^ 0x75e75eed5eedULL),
      c_generated_(metrics.GetCounter("load/generated")),
      h_interarrival_(metrics.GetHistogram("load/interarrival_ns",
                                           Histogram::DefaultLatencyBoundsNs())) {}

void LoadGenerator::Start(SimDuration duration, Sink sink) {
  sink_ = std::move(sink);
  next_ = loop_.Now();
  end_ = next_ + duration;
  running_ = true;
  ScheduleNext();
}

SimDuration LoadGenerator::NextGap() {
  // Inverse-CDF exponential; 1-U lies in (0, 1], so the log is finite.
  const double seconds = -std::log(1.0 - arrival_rng_.NextDouble()) / config_.rate_rps;
  const auto ns = static_cast<std::int64_t>(std::llround(seconds * 1e9));
  return SimDuration::Nanos(ns < 1 ? 1 : ns);
}

void LoadGenerator::ScheduleNext() {
  // Arrivals anchor to absolute process time, not to Now() at re-arm:
  // components charge virtual time synchronously (EventLoop::AdvanceBy)
  // while the sink dispatches, and an open-loop generator must not let that
  // work stretch its inter-arrival gaps.
  const SimDuration gap = NextGap();
  next_ = next_ + gap;
  if (next_ > end_) {
    running_ = false;
    return;
  }
  loop_.PostAt(next_, [this, gap] {
    if (!running_) {
      return;
    }
    LoadRequest request;
    request.id = ++generated_;
    request.user = user_rng_.NextBelow(
        config_.user_population == 0 ? 1 : config_.user_population);
    request.arrival = loop_.Now();
    c_generated_.Increment();
    h_interarrival_.Observe(gap.ns());
    if (sink_) {
      sink_(request);
    }
    ScheduleNext();
  });
}

}  // namespace nephele
