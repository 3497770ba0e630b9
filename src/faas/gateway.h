// OpenFaaS-like gateway with RPS autoscaling (Sec. 7.3): periodically
// queries the load per instance and launches one instance whenever it
// exceeds the threshold (kRpsThresholdPerInstance). Traffic is modelled at flow level (ab-style load
// generator saturating the deployment), sampled once per second by Run, the
// one autoscaler loop.

#ifndef SRC_FAAS_GATEWAY_H_
#define SRC_FAAS_GATEWAY_H_

#include <functional>
#include <vector>

#include "src/faas/backend.h"
#include "src/sim/event_loop.h"

namespace nephele {

struct GatewayConfig {
  // The autoscaler query period. The paper keeps OpenFaaS's default; our
  // default is shorter so the readiness staircase of Figs. 10-11 lands at
  // comparable times (see EXPERIMENTS.md).
  SimDuration query_interval = SimDuration::Seconds(10);
  std::size_t max_instances = 20;
  // Scale-down rule: retire one instance when the per-instance load drops
  // below this. 0 (the default) disables it — the paper's experiment only
  // scales up; the scheduler bench uses it to exercise the warm pool.
  double scale_down_threshold_per_instance = 0.0;
};

struct GatewaySample {
  double t_seconds = 0;
  double demand_rps = 0;
  double served_rps = 0;
  std::size_t instances_ready = 0;
  std::size_t instances_total = 0;
  double memory_mb = 0;
};

struct GatewayRunResult {
  std::vector<GatewaySample> series;
  std::vector<double> readiness_times;
  double total_served = 0;
};

class OpenFaasGateway {
 public:
  // The requests-per-second scaling threshold (Sec. 7.3).
  static constexpr double kRpsThresholdPerInstance = 10.0;

  OpenFaasGateway(EventLoop& loop, FunctionBackend& backend, GatewayConfig config)
      : loop_(loop), backend_(backend), config_(config) {}

  // Runs the experiment: deploys at t=0, then drives `demand_rps(t)` for
  // `duration`, autoscaling along the way. Returns the per-second series.
  GatewayRunResult Run(SimDuration duration, std::function<double(double)> demand_rps);

 private:
  EventLoop& loop_;
  FunctionBackend& backend_;
  GatewayConfig config_;
};

}  // namespace nephele

#endif  // SRC_FAAS_GATEWAY_H_
