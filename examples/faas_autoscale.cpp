// FaaS autoscaling on unikernel clones (the Sec. 7.3 use case): an
// OpenFaaS-like gateway scales a Python hello-world function; every new
// instance is a clone of the first, ready within seconds instead of the
// container's image-pull-dominated half minute.
//
//   $ ./examples/faas_autoscale

#include <cstdio>

#include "src/faas/gateway.h"

using namespace nephele;

int main() {
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 1024 * 1024;
  NepheleSystem system(scfg);
  GuestManager guests(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");

  UnikernelBackend unikernels(guests);
  OpenFaasGateway gateway(system.loop(), unikernels, GatewayConfig{});

  std::printf("driving 65 req/s against a 10-RPS-per-instance scaling threshold...\n");
  GatewayRunResult result =
      gateway.Run(SimDuration::Seconds(90), [](double) { return 65.0; });

  std::printf("\n  t(s)  ready  served(rps)  memory(MB)\n");
  for (std::size_t i = 9; i < result.series.size(); i += 10) {
    const GatewaySample& s = result.series[i];
    std::printf("  %4.0f  %5zu  %11.0f  %10.1f\n", s.t_seconds, s.instances_ready,
                s.served_rps, s.memory_mb);
  }
  std::printf("\ninstances reported ready at:");
  for (double t : result.readiness_times) {
    std::printf(" %.0fs", t);
  }
  std::printf("\n(paper: unikernels at ~3/14/25 s vs containers at ~33/42/56 s)\n");

  // Every instance beyond the first is a clone of instance 0.
  const auto& instances = unikernels.instances();
  for (std::size_t i = 1; i < instances.size(); ++i) {
    if (!system.hypervisor().IsDescendantOf(instances[i], instances[0])) {
      std::fprintf(stderr, "instance %zu is not a clone!\n", i);
      return 2;
    }
  }
  std::printf("%zu instances, %zu of them clones of dom%u\n", instances.size(),
              instances.size() - 1, instances[0]);
  return 0;
}
