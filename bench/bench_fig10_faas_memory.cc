// Figure 10 — OpenFaaS memory consumption: containers vs. unikernels.
//
// Sec. 7.3 setup: a hello-world Python function under an RPS autoscaler.
// The container series is the vanilla Kubernetes deployment model; the
// unikernel series runs KubeKraft-style Unikraft+Python guests on the REAL
// cloning pipeline (first instance boots, every further instance is a clone
// of it). Reports occupied memory over time and the instance-readiness
// times (the paper's dashed vertical lines: ~33/42/56 s for containers vs
// ~3/14/25 s for unikernels).
//
// Usage: bench_fig10_faas_memory [seconds]   (default 200)

#include <cstdio>
#include <cstdlib>

#include "bench/bench_args.h"
#include "src/faas/gateway.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

constexpr double kDemandRps = 65.0;  // 10 RPS threshold -> scales to ~6 instances

GatewayRunResult RunContainers(int seconds) {
  EventLoop loop;
  ContainerBackend backend(loop);
  OpenFaasGateway gateway(loop, backend, GatewayConfig{});
  return gateway.Run(SimDuration::Seconds(seconds), [](double) { return kDemandRps; });
}

GatewayRunResult RunUnikernels(int seconds) {
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 1024 * 1024;  // 4 GiB guest pool
  static NepheleSystem* system = new NepheleSystem(scfg);
  GuestManager* guests = new GuestManager(*system);
  (void)system->devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend backend(*guests);
  OpenFaasGateway gateway(system->loop(), backend, GatewayConfig{});
  return gateway.Run(SimDuration::Seconds(seconds), [](double) { return kDemandRps; });
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {{"seconds", 200, "simulated seconds per run"}});
  int seconds = static_cast<int>(args.Positional("seconds"));

  GatewayRunResult containers = RunContainers(seconds);
  GatewayRunResult unikernels = RunUnikernels(seconds);

  SeriesTable table("Figure 10: OpenFaaS memory consumption over time (MB)",
                    {"seconds", "containers_mb", "containers_instances", "unikernels_mb",
                     "unikernels_instances"});
  std::size_t rows = std::min(containers.series.size(), unikernels.series.size());
  for (std::size_t i = 0; i < rows; i += 5) {
    table.AddRow({containers.series[i].t_seconds, containers.series[i].memory_mb,
                  static_cast<double>(containers.series[i].instances_ready),
                  unikernels.series[i].memory_mb,
                  static_cast<double>(unikernels.series[i].instances_ready)});
  }
  table.Print();

  auto print_readiness = [](const char* name, const std::vector<double>& times) {
    std::printf("# %s instance-ready times (s):", name);
    for (double t : times) {
      std::printf(" %.0f", t);
    }
    std::printf("\n");
  };
  print_readiness("containers", containers.readiness_times);
  print_readiness("unikernels", unikernels.readiness_times);

  if (!containers.readiness_times.empty() && !unikernels.readiness_times.empty()) {
    PrintSummary("first-instance readiness advantage",
                 containers.readiness_times[0] - unikernels.readiness_times[0], "s");
  }
  double cont_final = containers.series[rows - 1].memory_mb;
  double uni_final = unikernels.series[rows - 1].memory_mb;
  std::size_t cont_n = containers.series[rows - 1].instances_total;
  std::size_t uni_n = unikernels.series[rows - 1].instances_total;
  PrintSummary("final container memory", cont_final, "MB");
  PrintSummary("final unikernel memory", uni_final, "MB");
  if (cont_n > 1 && uni_n > 1) {
    PrintSummary("container MB per extra instance",
                 (cont_final - 90.0) / static_cast<double>(cont_n - 1), "MB");
    PrintSummary("unikernel MB per extra instance",
                 (uni_final - 85.0) / static_cast<double>(uni_n - 1), "MB");
  }
  return 0;
}
