// Figure 13 (beyond the paper) — cluster-scale clone placement.
//
// The paper's evaluation stops at one host; Sec. 8 names multi-host cloning
// as the open extension. This bench drives the ClusterFabric at that scale:
// a 4-host fabric, one parent image replicated to every peer, and >=1024
// instances acquired through the cluster scheduler's placement policy in
// waves, with a release/re-acquire pass exercising the cross-host warm
// pools and a mid-migration link-fault demo proving clean rollback (frame
// conservation checked on both ends).
//
// The whole scenario is a seeded discrete-event run, so its merged cluster
// export — every host's metrics plus the fabric's own — must be
// byte-identical across reruns AND across clone worker counts. The bench
// runs the scenario three times (workers 1, 1 again, 4) and fails hard on
// any digest mismatch before emitting gate metrics.
//
// Every host charges its own virtual clock (src/sim/event_loop.h), so a
// spread wave clones on all hosts in parallel. The bench reruns the same
// scenario once on 2 and once on 8 hosts and prints the scenario's virtual
// time against the host count.
//
// Usage: bench_fig13_cluster_scaling [instances]   (default 1024). With
// --json=PATH the figures land in a BenchJsonWriter document for the
// perf-regression gate (scripts/bench_gate.sh).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_args.h"
#include "bench/bench_json.h"
#include "src/core/fabric.h"
#include "src/hypervisor/invariants.h"
#include "src/sched/cluster_scheduler.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

constexpr std::size_t kHosts = 4;  // the gated scenario
constexpr std::size_t kWave = 128;

struct ScenarioResult {
  std::string digest;           // merged cluster metrics export
  double sim_ms = 0;            // virtual time for the whole scenario
  std::size_t granted = 0;      // children granted across all waves
  std::size_t warm_granted = 0; // re-acquire wave grants
  std::vector<std::size_t> per_host;
  std::uint64_t warm_placements = 0;
  std::uint64_t link_tx_bytes = 0;
  bool rollback_ok = false;     // link-fault migration rolled back cleanly
  bool invariants_ok = false;   // every host clean at the end
};

ScenarioResult RunScenario(std::size_t hosts, std::size_t instances, unsigned clone_workers) {
  ScenarioResult out;
  ClusterConfig cfg;
  cfg.hosts = hosts;
  cfg.placement = PlacementPolicy::kSpread;
  cfg.host.hypervisor.pool_frames = 256 * 1024;  // 1 GiB pool per host
  cfg.host.clone_worker_threads = clone_workers;
  cfg.host.sched.max_queue_depth = 256;
  cfg.host.sched.warm_pool_capacity = 64;
  ClusterFabric fabric(cfg);
  ClusterScheduler sched(fabric);

  DomainConfig parent_cfg;
  parent_cfg.name = "fig13-fn";
  parent_cfg.memory_mb = 4;
  parent_cfg.max_clones = 1024;
  auto parent = fabric.host(0).toolstack().CreateDomain(parent_cfg);
  if (!parent.ok()) {
    std::fprintf(stderr, "parent boot failed: %s\n", parent.status().ToString().c_str());
    std::exit(1);
  }
  fabric.Settle();
  auto family = sched.RegisterParent(0, *parent);
  if (!family.ok()) {
    std::fprintf(stderr, "RegisterParent failed: %s\n", family.status().ToString().c_str());
    std::exit(1);
  }
  fabric.Settle();

  // --- Placement waves: `instances` children, kWave at a time -------------
  std::vector<ClusterGrant> grants;
  grants.reserve(instances);
  for (std::size_t done = 0; done < instances; done += kWave) {
    const std::size_t want = std::min(kWave, instances - done);
    (void)sched.Acquire(*family, static_cast<unsigned>(want),
                        [&out, &grants](Result<ClusterGrant> r) {
                          if (r.ok()) {
                            ++out.granted;
                            grants.push_back(*r);
                          }
                        });
    fabric.Settle();
  }

  // --- Warm pass: release one wave, re-acquire it from the parked pool ----
  const std::size_t recycle = std::min<std::size_t>(kWave, grants.size());
  for (std::size_t i = 0; i < recycle; ++i) {
    (void)sched.Release(grants[grants.size() - 1 - i]);
  }
  fabric.Settle();
  (void)sched.Acquire(*family, static_cast<unsigned>(recycle),
                      [&out](Result<ClusterGrant> r) { out.warm_granted += r.ok() ? 1 : 0; });
  fabric.Settle();

  // --- Mid-migration link fault: the source must roll back cleanly --------
  DomainConfig mover_cfg;
  mover_cfg.name = "fig13-mover";
  mover_cfg.memory_mb = 4;
  mover_cfg.max_clones = 0;
  auto mover = fabric.host(0).toolstack().CreateDomain(mover_cfg);
  if (mover.ok()) {
    fabric.Settle();
    (void)fabric.fault_injector().Arm("fabric/link", FaultSpec::NthHit(1));
    auto failed = fabric.Migrate(*mover, 0, hosts - 1);
    const Domain* back = fabric.host(0).hypervisor().FindDomain(*mover);
    out.rollback_ok = !failed.ok() && back != nullptr &&
                      back->state == DomainState::kRunning &&
                      CheckHypervisorInvariants(fabric.host(0).hypervisor()).empty() &&
                      CheckHypervisorInvariants(fabric.host(hosts - 1).hypervisor()).empty();
    fabric.fault_injector().DisarmAll();
    auto moved = fabric.Migrate(*mover, 0, hosts - 1);
    out.rollback_ok = out.rollback_ok && moved.ok();
    fabric.Settle();
  }

  out.invariants_ok = true;
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    out.per_host.push_back(sched.active_on(i));
    out.invariants_ok =
        out.invariants_ok && CheckHypervisorInvariants(fabric.host(i).hypervisor()).empty();
  }
  out.warm_placements = fabric.metrics().CounterValue("cluster/warm_placements");
  out.link_tx_bytes = fabric.metrics().CounterValue("fabric/link_tx_bytes");
  out.sim_ms = fabric.Now().ToSeconds() * 1e3;
  out.digest = fabric.ExportClusterMetricsJson();
  return out;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {{"instances", 1024, "children to place across the fabric"}});
  const std::size_t instances = static_cast<std::size_t>(args.Positional("instances"));
  auto wall_start = std::chrono::steady_clock::now();

  ScenarioResult run1 = RunScenario(kHosts, instances, /*clone_workers=*/1);
  ScenarioResult rerun = RunScenario(kHosts, instances, /*clone_workers=*/1);
  ScenarioResult run4 = RunScenario(kHosts, instances, /*clone_workers=*/4);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  ScenarioResult h2 = RunScenario(2, instances, /*clone_workers=*/1);
  ScenarioResult h8 = RunScenario(8, instances, /*clone_workers=*/1);

  const bool rerun_identical = run1.digest == rerun.digest;
  const bool workers_identical = run1.digest == run4.digest;

  SeriesTable table("Figure 13: cluster-wide clone placement (4 hosts, spread)",
                    {"host", "active_children"});
  for (std::size_t i = 0; i < run1.per_host.size(); ++i) {
    table.AddRow({static_cast<double>(i), static_cast<double>(run1.per_host[i])});
  }
  table.Print();

  SeriesTable scaling("Figure 13: scenario virtual time vs hosts (spread)",
                      {"hosts", "scenario_sim_ms"});
  scaling.AddRow({2, h2.sim_ms});
  scaling.AddRow({static_cast<double>(kHosts), run1.sim_ms});
  scaling.AddRow({8, h8.sim_ms});
  scaling.Print();

  PrintSummary("instances requested", static_cast<double>(instances));
  PrintSummary("instances granted", static_cast<double>(run1.granted));
  PrintSummary("warm re-acquires granted", static_cast<double>(run1.warm_granted));
  PrintSummary("warm placements (cluster)", static_cast<double>(run1.warm_placements));
  PrintSummary("fabric bytes on the wire", static_cast<double>(run1.link_tx_bytes), "B");
  PrintSummary("virtual time for the scenario", run1.sim_ms, "ms");
  PrintSummary("link-fault rollback clean", run1.rollback_ok ? 1.0 : 0.0);
  PrintSummary("all hosts invariant-clean", run1.invariants_ok ? 1.0 : 0.0);
  PrintSummary("digest identical across reruns", rerun_identical ? 1.0 : 0.0);
  PrintSummary("digest identical, workers 1 vs 4", workers_identical ? 1.0 : 0.0);

  PrintSummary("host speedup, 8 vs 2 hosts", h2.sim_ms / h8.sim_ms, "x");

  if (!rerun_identical || !workers_identical) {
    std::fprintf(stderr, "FAIL: rerun_identical=%d workers_identical=%d\n", rerun_identical,
                 workers_identical);
    return 1;
  }
  for (const ScenarioResult* run : {&run1, &h2, &h8}) {
    if (!run->rollback_ok || !run->invariants_ok || run->granted < instances) {
      std::fprintf(stderr,
                   "FAIL on %zu hosts: rollback_ok=%d invariants_ok=%d granted %zu of %zu\n",
                   run->per_host.size(), run->rollback_ok, run->invariants_ok, run->granted,
                   instances);
      return 1;
    }
  }

  if (!args.json_path().empty()) {
    BenchJsonWriter json("fig13");
    json.Add("instances_granted", static_cast<double>(run1.granted), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("warm_regrants", static_cast<double>(run1.warm_granted), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("warm_placements", static_cast<double>(run1.warm_placements), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("fabric_tx_bytes", static_cast<double>(run1.link_tx_bytes), "B",
             MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("scenario_sim_ms", run1.sim_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("scenario_sim_ms_h2", h2.sim_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("scenario_sim_ms_h8", h8.sim_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("host_speedup_h8_vs_h2", h2.sim_ms / h8.sim_ms, "x", MetricDir::kHigherIsBetter,
             MetricKind::kSim);
    json.Add("host_wall_ms", wall_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
    return json.WriteFile(args.json_path()) ? 0 : 1;
  }
  return 0;
}
