#include "src/faas/gateway.h"

#include <algorithm>

namespace nephele {

GatewayRunResult OpenFaasGateway::Run(SimDuration duration,
                                      std::function<double(double)> demand_rps) {
  GatewayRunResult result;
  SimTime start = loop_.Now();
  (void)backend_.Deploy();

  const SimDuration tick = SimDuration::Seconds(1);
  SimTime next_query = start + config_.query_interval;

  for (SimTime t = start + tick; t <= start + duration; t = t + tick) {
    loop_.RunUntil(t);
    double rel = (t - start).ToSeconds();
    double demand = demand_rps(rel);
    std::size_t ready = backend_.ReadyInstances();
    double capacity = static_cast<double>(ready) * backend_.CapacityPerInstance();
    double served = std::min(demand, capacity);
    result.total_served += served;

    if (t >= next_query) {
      next_query = next_query + config_.query_interval;
      // OpenFaaS alert rule: load per instance above threshold -> scale.
      std::size_t total = backend_.TotalInstances();
      double unmet = demand - served;
      double per_instance = total > 0 ? (served + unmet) / static_cast<double>(total) : demand;
      if (per_instance > kRpsThresholdPerInstance && total < config_.max_instances) {
        (void)backend_.ScaleUp();
      } else if (config_.scale_down_threshold_per_instance > 0 && total > 1 &&
                 per_instance < config_.scale_down_threshold_per_instance) {
        (void)backend_.ScaleDown();
      }
    }

    GatewaySample sample;
    sample.t_seconds = rel;
    sample.demand_rps = demand;
    sample.served_rps = served;
    sample.instances_ready = ready;
    sample.instances_total = backend_.TotalInstances();
    sample.memory_mb = static_cast<double>(backend_.MemoryBytes()) / static_cast<double>(kMiB);
    result.series.push_back(sample);
  }
  result.readiness_times = backend_.ReadinessTimes();
  return result;
}

}  // namespace nephele
