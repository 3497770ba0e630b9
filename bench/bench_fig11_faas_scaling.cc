// Figure 11 — Reaction of containers vs. unikernels to increasing demand.
//
// Sec. 7.3: an ab-style generator (8 workers, effectively saturating the
// deployment at ~1450 req/s) hits the function while the autoscaler adds
// instances. Containers serve 600 req/s each but become ready late;
// unikernel clones serve 300 req/s each but track the load closely.
//
// Beyond the paper's figure, a third run puts the unikernel backend behind
// the clone scheduler and drives a demand trough (saturation -> near-idle ->
// saturation): the trough scales instances down into the warm pool, and the
// recovery is served from parked children in O(reset) — plus a deterministic
// burst-rejection demo of the scheduler's admission control.
//
// Usage: bench_fig11_faas_scaling [seconds]   (default 150). With
// --json=PATH the scheduler-run figures land in a BenchJsonWriter document
// for the perf-regression gate.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_args.h"
#include "bench/bench_json.h"
#include "src/faas/gateway.h"
#include "src/sched/scheduler.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

constexpr double kSaturationRps = 1450.0;  // ab with 8 workers, Sec. 7.3

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {{"seconds", 150, "simulated seconds per run"}});
  int seconds = static_cast<int>(args.Positional("seconds"));
  auto wall_start = std::chrono::steady_clock::now();
  auto demand = [](double) { return kSaturationRps; };

  EventLoop closs;
  ContainerBackend containers(closs);
  OpenFaasGateway cgw(closs, containers, GatewayConfig{});
  GatewayRunResult cres = cgw.Run(SimDuration::Seconds(seconds), demand);

  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 1024 * 1024;
  NepheleSystem system(scfg);
  GuestManager guests(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend unikernels(guests);
  OpenFaasGateway ugw(system.loop(), unikernels, GatewayConfig{});
  GatewayRunResult ures = ugw.Run(SimDuration::Seconds(seconds), demand);

  SeriesTable table("Figure 11: throughput at increasing function-call demand (req/s)",
                    {"seconds", "containers", "unikernels"});
  std::size_t rows = std::min(cres.series.size(), ures.series.size());
  for (std::size_t i = 0; i < rows; i += 2) {
    table.AddRow({cres.series[i].t_seconds, cres.series[i].served_rps,
                  ures.series[i].served_rps});
  }
  table.Print();

  auto print_readiness = [](const char* name, const std::vector<double>& times) {
    std::printf("# %s instance-ready times (s):", name);
    for (std::size_t i = 0; i < times.size() && i < 6; ++i) {
      std::printf(" %.0f", times[i]);
    }
    std::printf("\n");
  };
  print_readiness("containers", cres.readiness_times);
  print_readiness("unikernels", ures.readiness_times);

  PrintSummary("requests served in first 60 s, containers",
               [&] {
                 double sum = 0;
                 for (std::size_t i = 0; i < 60 && i < cres.series.size(); ++i) {
                   sum += cres.series[i].served_rps;
                 }
                 return sum;
               }());
  PrintSummary("requests served in first 60 s, unikernels",
               [&] {
                 double sum = 0;
                 for (std::size_t i = 0; i < 60 && i < ures.series.size(); ++i) {
                   sum += ures.series[i].served_rps;
                 }
                 return sum;
               }());
  PrintSummary("final throughput, containers", cres.series[rows - 1].served_rps, "req/s");
  PrintSummary("final throughput, unikernels", ures.series[rows - 1].served_rps, "req/s");

  // --- Scheduled run: warm pool across a demand trough -------------------
  //
  // Saturation for the first third, near-idle for the second, saturation
  // again for the last. The scale-down threshold retires instances into the
  // scheduler's warm pool during the trough; the recovery's scale-ups are
  // served warm (CloneReset + re-report) instead of cloning afresh.
  SystemConfig wcfg;
  wcfg.hypervisor.pool_frames = 1024 * 1024;
  wcfg.sched.warm_pool_capacity = 8;
  NepheleSystem wsys(wcfg);
  GuestManager wguests(wsys);
  (void)wsys.devices().hostfs().CreateFile("/srv/guest-root/python3");
  UnikernelBackend wuni(wguests);
  CloneScheduler wsched(wsys);
  wuni.AttachScheduler(wsched);
  GatewayConfig wgcfg;
  wgcfg.scale_down_threshold_per_instance = 3.0;
  OpenFaasGateway wgw(wsys.loop(), wuni, wgcfg);
  const double third = seconds / 3.0;
  auto trough = [third](double t) {
    return (t >= third && t < 2 * third) ? 2.0 : kSaturationRps;
  };
  GatewayRunResult wres = wgw.Run(SimDuration::Seconds(seconds), trough);

  SeriesTable wtable(
      "Figure 11b: scheduled unikernels across a demand trough (req/s)",
      {"seconds", "demand", "served", "ready"});
  for (std::size_t i = 0; i < wres.series.size(); i += 2) {
    wtable.AddRow({wres.series[i].t_seconds, wres.series[i].demand_rps,
                   wres.series[i].served_rps,
                   static_cast<double>(wres.series[i].instances_ready)});
  }
  wtable.Print();

  const MetricsRegistry& wm = wsys.metrics();
  PrintSummary("sched warm-pool hits", static_cast<double>(wm.CounterValue("sched/warm_hits")));
  PrintSummary("sched cold misses", static_cast<double>(wm.CounterValue("sched/warm_misses")));
  PrintSummary("sched instances parked", static_cast<double>(wm.CounterValue("sched/parked_total")));
  const Histogram* warm_ns = wm.FindHistogram("sched/warm_grant_ns");
  const Histogram* cold_ns = wm.FindHistogram("sched/wait_ns");
  if (warm_ns != nullptr && cold_ns != nullptr) {
    PrintSummary("warm grant latency, mean", warm_ns->mean() / 1e6, "ms");
    PrintSummary("cold grant latency, mean", cold_ns->mean() / 1e6, "ms");
  }

  // --- Admission-control demo: a deterministic burst rejection -----------
  //
  // A burst of max_queue_depth + 4 single-child acquires against one parent:
  // exactly 4 are rejected with kResourceExhausted, every accepted one is
  // eventually granted. Same numbers on every run.
  SystemConfig bcfg;
  bcfg.hypervisor.pool_frames = 256 * 1024;
  bcfg.sched.max_queue_depth = 8;
  NepheleSystem bsys(bcfg);
  CloneScheduler bsched(bsys);
  DomainConfig bdom;
  bdom.name = "burst-parent";
  bdom.memory_mb = 4;
  bdom.max_clones = 64;
  bdom.with_vif = true;
  auto bparent = bsys.toolstack().CreateDomain(bdom);
  std::size_t rejected = 0, granted = 0;
  if (bparent.ok()) {
    const std::size_t burst = bcfg.sched.max_queue_depth + 4;
    for (std::size_t i = 0; i < burst; ++i) {
      Status s = bsched.Acquire({kDom0, *bparent, kInvalidMfn, 1},
                                [&granted](Result<DomId> r) { granted += r.ok() ? 1 : 0; });
      if (s.code() == StatusCode::kResourceExhausted) {
        ++rejected;
      }
    }
    bsys.Settle();
  }
  PrintSummary("burst acquires rejected (queue depth 8, burst 12)",
               static_cast<double>(rejected));
  PrintSummary("burst acquires granted", static_cast<double>(granted));

  // --- Time-to-first-response: eager vs post-copy (lazy) stage 1 ---------
  //
  // A 64-child batch off a large (64 MiB) parent, one dedicated system per
  // mode. TTFR is the virtual time from CLONEOP issue to every child being
  // granted (runnable). Eager stage 1 shares the parent's whole p2m into
  // each child before granting; post-copy maps only the hot working set
  // (max_hot_pages) and streams the rest in the background, so its TTFR
  // must sit strictly below the full-copy one.
  auto ttfr_ms = [](bool lazy) {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 1024 * 1024;
    NepheleSystem sys(cfg);
    DomainConfig dcfg;
    dcfg.name = "ttfr-parent";
    dcfg.memory_mb = 64;
    dcfg.max_clones = 128;
    dcfg.with_vif = true;
    auto parent = sys.toolstack().CreateDomain(dcfg);
    if (!parent.ok()) {
      return -1.0;
    }
    sys.Settle();
    const Domain* d = sys.hypervisor().FindDomain(*parent);
    const std::int64_t t0 = sys.Now().ns();
    auto kids =
        sys.clone_engine().Clone({*parent, *parent, d->p2m[d->start_info_gfn].mfn, 64, lazy});
    const double ms = static_cast<double>(sys.Now().ns() - t0) / 1e6;
    if (!kids.ok()) {
      return -1.0;
    }
    sys.Settle();  // drain stage 2 and the background streams
    return ms;
  };
  const double ttfr_eager = ttfr_ms(/*lazy=*/false);
  const double ttfr_lazy = ttfr_ms(/*lazy=*/true);
  PrintSummary("TTFR, 64-child batch, eager full-copy", ttfr_eager, "ms");
  PrintSummary("TTFR, 64-child batch, lazy post-copy", ttfr_lazy, "ms");

  if (!args.json_path().empty()) {
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    BenchJsonWriter json("fig11");
    json.Add("warm_hits", static_cast<double>(wm.CounterValue("sched/warm_hits")), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("warm_misses", static_cast<double>(wm.CounterValue("sched/warm_misses")), "count",
             MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("parked_total", static_cast<double>(wm.CounterValue("sched/parked_total")), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    if (warm_ns != nullptr && cold_ns != nullptr) {
      json.Add("warm_grant_mean_ms", warm_ns->mean() / 1e6, "ms", MetricDir::kLowerIsBetter,
               MetricKind::kSim);
      json.Add("cold_grant_mean_ms", cold_ns->mean() / 1e6, "ms", MetricDir::kLowerIsBetter,
               MetricKind::kSim);
    }
    json.Add("burst_rejected", static_cast<double>(rejected), "count",
             MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("burst_granted", static_cast<double>(granted), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("ttfr_eager_ms", ttfr_eager, "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("ttfr_lazy_ms", ttfr_lazy, "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("host_wall_ms", wall_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
    return json.WriteFile(args.json_path()) ? 0 : 1;
  }
  return 0;
}
