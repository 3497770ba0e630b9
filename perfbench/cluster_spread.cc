// cluster-spread: Fig. 13. A 4-host ClusterFabric with spread placement;
// the parent is replicated to every peer; seeded waves of
// ClusterScheduler::Acquire place the children; a release/re-acquire pass
// uses the warm pools; seeded migrations move non-family domains between
// seeded host pairs. All hosts charge one shared EventLoop.
//
// op = acquire -> grant, per child. Migrations are counted separately.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/fabric.h"
#include "src/hypervisor/invariants.h"
#include "src/sched/cluster_scheduler.h"

namespace perfbench {
namespace {

using nephele::DomId;

constexpr std::size_t kHosts = 4;
constexpr std::size_t kHomeHost = 0;
// Enough children to load every host, few enough that no host's Xenstore
// reaches an access-log rotation: its 1500 ms charge lands on the shared
// clock and pushes queued acquisitions past the scheduler's 5 s timeout.
constexpr std::size_t kChildren = 1024;
constexpr std::size_t kMovers = 4;
constexpr std::size_t kMigrations = 12;
// Grant latency limit. Every host charges the one shared clock, so a wave's
// grants spread over seconds; the scheduler's own request timeout is 5 s.
constexpr double kGrantLimitMs = 1000.0;

struct Migration {
  std::size_t after_wave = 0;
  std::size_t mover = 0;
  std::size_t dst_offset = 1;  // destination = (current host + offset) % kHosts
};

struct Inputs {
  std::vector<unsigned> waves;
  unsigned recycle = 0;
  std::vector<std::size_t> mover_hosts;
  std::vector<Migration> migrations;
};

Inputs MakeInputs(std::uint64_t seed) {
  InputRng rng(seed, 0xc105);
  Inputs in;
  std::size_t total = 0;
  while (total < kChildren) {
    const auto want = static_cast<unsigned>(
        std::min<std::uint64_t>(rng.Between(60, 68), kChildren - total));
    in.waves.push_back(want);
    total += want;
  }
  in.recycle = static_cast<unsigned>(rng.Between(120, 136));
  for (std::size_t i = 0; i < kMovers; ++i) {
    in.mover_hosts.push_back(rng.Between(0, kHosts - 1));
  }
  for (std::size_t j = 0; j < kMigrations; ++j) {
    Migration mig;
    mig.after_wave = j * in.waves.size() / kMigrations;
    mig.mover = rng.Between(0, kMovers - 1);
    mig.dst_offset = rng.Between(1, kHosts - 1);
    in.migrations.push_back(mig);
  }
  return in;
}

}  // namespace

RepResult RunClusterSpread(const RepConfig& cfg) {
  const auto rep_start = std::chrono::steady_clock::now();
  const Inputs in = MakeInputs(cfg.seed);
  RepResult out;

  nephele::ClusterConfig cluster_cfg;
  cluster_cfg.hosts = kHosts;
  cluster_cfg.placement = nephele::PlacementPolicy::kSpread;
  cluster_cfg.host.hypervisor.pool_frames = 512 * 1024;  // 2 GiB per host
  cluster_cfg.host.clone_worker_threads = cfg.clone_workers;
  cluster_cfg.host.sched.max_queue_depth = 256;
  cluster_cfg.host.sched.warm_pool_capacity = 64;
  nephele::ClusterFabric fabric(cluster_cfg);
  nephele::EventLoop& loop = fabric.loop();
  Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) {
    tracer->Bind(loop);
  }
  nephele::ClusterScheduler sched(fabric);
  std::vector<std::unique_ptr<BenchObserver>> observers;
  std::vector<std::size_t> free_base;
  std::vector<const nephele::MetricsRegistry*> registries{&fabric.metrics()};
  for (std::size_t h = 0; h < kHosts; ++h) {
    nephele::Host& host = fabric.host(h);
    observers.push_back(std::make_unique<BenchObserver>(host.clone_engine(), loop, tracer));
    BenchObserver* obs = observers.back().get();
    sched.host_scheduler(h).SetCloneExecutor([&host, obs, tracer](const nephele::CloneRequest& req) {
      ScopedSpan span(tracer, "core.clone");
      auto children = host.clone_engine().Clone(req);
      if (children.ok()) {
        obs->NoteCloneReturn(*children);
      }
      return children;
    });
    free_base.push_back(host.hypervisor().FreePoolFrames());
    registries.push_back(&host.metrics());
  }
  double sim_events = 0;
  bool timed = false;
  auto run = [&] {
    ScopedSpan span(tracer, "sim.run");
    const auto events = static_cast<double>(loop.Run());
    sim_events += timed ? events : 0;
  };
  auto create = [&](std::size_t host, const std::string& name, std::uint32_t max_clones) {
    nephele::DomainConfig dcfg;
    dcfg.name = name;
    dcfg.memory_mb = 4;
    dcfg.max_clones = max_clones;
    ScopedSpan span(tracer, "toolstack.create");
    return fabric.host(host).toolstack().CreateDomain(dcfg);
  };

  auto parent = create(kHomeHost, "spread-fn", 1u << 20);
  if (!parent.ok()) {
    out.violations.push_back("parent boot failed: " + parent.status().ToString());
    return out;
  }
  run();
  nephele::Result<std::size_t> family = nephele::ErrInternal("not registered");
  const std::int64_t replicate_start_ns = loop.Now().ns();
  {
    ScopedSpan span(tracer, "core.fabric.replicate");
    family = sched.RegisterParent(kHomeHost, *parent);
  }
  const double replicate_sim_ms = static_cast<double>(loop.Now().ns() - replicate_start_ns) / 1e6;
  if (!family.ok()) {
    out.violations.push_back("RegisterParent failed: " + family.status().ToString());
    return out;
  }
  run();
  struct Mover {
    std::size_t host;
    DomId dom;
  };
  std::vector<Mover> movers;
  for (std::size_t i = 0; i < kMovers; ++i) {
    auto dom = create(in.mover_hosts[i], "spread-mover-" + std::to_string(i), 0);
    if (!dom.ok()) {
      out.violations.push_back("mover boot failed: " + dom.status().ToString());
      return out;
    }
    movers.push_back({in.mover_hosts[i], *dom});
  }
  run();

  auto alloc_now = [&] {
    std::size_t alloc = 0;
    for (std::size_t h = 0; h < kHosts; ++h) {
      alloc += fabric.host(h).hypervisor().TotalPoolFrames() -
               fabric.host(h).hypervisor().FreePoolFrames();
    }
    return alloc;
  };
  auto domains_now = [&] {
    std::size_t n = 0;
    for (std::size_t h = 0; h < kHosts; ++h) {
      n += fabric.host(h).hypervisor().NumDomains();
    }
    return n;
  };
  RegistryProbe probe(registries);
  const RegistryProbe::Snapshot before = probe.Take();
  const std::size_t alloc_base = alloc_now();
  const std::size_t domains_base = domains_now();
  std::size_t alloc_peak = alloc_base;
  std::size_t live_at_peak = 0;
  const std::int64_t sim_start = loop.Now().ns();
  out.setup_s = ElapsedS(rep_start);
  timed = true;
  for (auto& obs : observers) {
    obs->StartTimedPhase();
  }
  if (tracer != nullptr) {
    tracer->MarkTimed();
  }
  const auto timed_start = std::chrono::steady_clock::now();

  std::vector<double> latency_ms;
  std::vector<nephele::ClusterGrant> grants;
  std::uint64_t granted = 0;
  std::uint64_t requested = 0;
  std::uint64_t op_id = 0;
  // Virtual time the timed ops kept the fabric busy: each Acquire to its last
  // grant, and each migration. Draining the loop afterwards also runs the
  // scheduler's stale timeout timers, which is idle time.
  std::int64_t busy_ns = 0;
  std::int64_t last_grant_ns = 0;
  auto acquire = [&](unsigned want) {
    const std::int64_t asked_ns = loop.Now().ns();
    last_grant_ns = asked_ns;
    requested += want;
    out.attempted += want;
    nephele::Status s;
    {
      ScopedSpan span(tracer, "sched.cluster.acquire", ++op_id);
      s = sched.Acquire(*family, want, [&, asked_ns](nephele::Result<nephele::ClusterGrant> r) {
        if (!r.ok()) {
          ++out.failed;
          return;
        }
        ++granted;
        last_grant_ns = loop.Now().ns();
        grants.push_back(*r);
        latency_ms.push_back(static_cast<double>(loop.Now().ns() - asked_ns) / 1e6);
        const std::size_t alloc = alloc_now();
        if (alloc > alloc_peak) {
          alloc_peak = alloc;
          live_at_peak = domains_now() - domains_base;
        }
      });
    }
    if (!s.ok()) {
      out.failed += want;
    }
    run();
    busy_ns += last_grant_ns - asked_ns;
  };

  std::vector<double> migrate_sim_ms;
  std::vector<double> migrate_link_bytes;
  std::size_t next_migration = 0;
  for (std::size_t w = 0; w < in.waves.size(); ++w) {
    acquire(in.waves[w]);
    for (; next_migration < in.migrations.size() &&
           in.migrations[next_migration].after_wave == w;
         ++next_migration) {
      const Migration& mig = in.migrations[next_migration];
      Mover& mover = movers[mig.mover];
      const std::size_t dst = (mover.host + mig.dst_offset) % kHosts;
      const std::int64_t start_ns = loop.Now().ns();
      const std::uint64_t bytes_before = fabric.metrics().CounterValue("fabric/link_tx_bytes");
      ++out.attempted;
      nephele::Result<DomId> moved = nephele::ErrInternal("not migrated");
      {
        ScopedSpan span(tracer, "core.fabric.migrate", next_migration + 1);
        moved = fabric.Migrate(mover.dom, mover.host, dst);
      }
      busy_ns += loop.Now().ns() - start_ns;
      migrate_sim_ms.push_back(static_cast<double>(loop.Now().ns() - start_ns) / 1e6);
      migrate_link_bytes.push_back(static_cast<double>(
          fabric.metrics().CounterValue("fabric/link_tx_bytes") - bytes_before));
      if (!moved.ok()) {
        ++out.failed;
        continue;
      }
      const nephele::Domain* there = fabric.host(dst).hypervisor().FindDomain(*moved);
      if (there == nullptr || fabric.host(mover.host).hypervisor().FindDomain(mover.dom) != nullptr) {
        out.violations.push_back("migration left no single live copy of domain " +
                                 std::to_string(mover.dom));
      }
      mover = {dst, *moved};
      run();
    }
  }
  std::vector<double> per_host_active;
  for (std::size_t h = 0; h < kHosts; ++h) {
    per_host_active.push_back(static_cast<double>(sched.active_on(h)));
  }
  // Warm pass: release the newest grants, then acquire as many again.
  const std::size_t recycle = std::min<std::size_t>(in.recycle, grants.size());
  for (std::size_t i = 0; i < recycle; ++i) {
    (void)sched.Release(grants.back());
    grants.pop_back();
  }
  run();
  acquire(static_cast<unsigned>(recycle));

  out.timed_wall_s = ElapsedS(timed_start);
  const double makespan_s = static_cast<double>(loop.Now().ns() - sim_start) / 1e9;
  const RegistryProbe::Snapshot after = probe.Take();
  const Delta delta(before, after);
  out.digest = std::to_string(Fnv1a(fabric.ExportClusterMetricsJson()));

  // --- End-to-end (virtual) ---
  MetricMap& m = out.virt;
  const auto ops = static_cast<double>(latency_ms.size());
  std::size_t within = 0;
  for (double ms : latency_ms) {
    within += ms <= kGrantLimitMs ? 1 : 0;
  }
  m["sim_op_p50_ms"] = Quantile(latency_ms, 0.50);
  m["sim_op_p99_ms"] = Quantile(latency_ms, 0.99);
  m["sim_op_samples"] = ops;
  m["sim_ops_per_s"] = busy_ns > 0 ? ops / (static_cast<double>(busy_ns) / 1e9) : 0.0;
  m["slo_ratio"] = static_cast<double>(within) / static_cast<double>(requested);
  m["latency_limit_ms"] = kGrantLimitMs;
  m["mem_per_instance_kib"] =
      live_at_peak == 0 ? 0.0
                        : static_cast<double>(alloc_peak - alloc_base) * 4.0 /
                              static_cast<double>(live_at_peak);

  // --- Per layer ---
  FillRegistryLayers(delta, ops, m);
  std::vector<double> stage2;
  std::uint64_t dropped = fabric.trace().dropped_events();
  for (std::size_t h = 0; h < kHosts; ++h) {
    stage2.insert(stage2.end(), observers[h]->stage2_ms().begin(), observers[h]->stage2_ms().end());
    dropped += fabric.host(h).trace().dropped_events();
  }
  m["sim.events"] = sim_events;
  m["sim.timed_s"] = makespan_s;
  m["toolstack.create.calls"] = static_cast<double>(1 + kMovers);
  m["toolstack.boot.sim_ms"] =
      Delta(RegistryProbe::Snapshot{}, before).HistMean("toolstack/boot/duration_ns") / 1e6;
  m["core.xencloned.stage2_sim_ms.p50"] = Quantile(stage2, 0.50);
  m["core.xencloned.stage2_sim_ms.p99"] = Quantile(stage2, 0.99);
  m["hypervisor.frames_allocated_peak"] = static_cast<double>(alloc_peak);
  m["net.link_bytes_per_migration"] = Mean(migrate_link_bytes);
  m["core.fabric.migrate.sim_ms"] = Mean(migrate_sim_ms);
  m["core.fabric.replicate.sim_ms"] = replicate_sim_ms;
  m["sched.cluster.host_imbalance"] =
      *std::max_element(per_host_active.begin(), per_host_active.end()) / Mean(per_host_active);
  m["obs.trace_dropped"] = static_cast<double>(dropped);

  // --- Correctness ---
  if (granted != requested) {
    out.violations.push_back("granted " + std::to_string(granted) + " of " +
                             std::to_string(requested) + " requested children");
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    if (std::string v = nephele::CheckHypervisorInvariants(fabric.host(h).hypervisor());
        !v.empty()) {
      out.violations.push_back("host " + std::to_string(h) + " invariants: " + v);
    }
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    sched.host_scheduler(h).DrainAll();
  }
  loop.Run();
  for (std::size_t h = 0; h < kHosts; ++h) {
    nephele::Host& host = fabric.host(h);
    std::vector<DomId> doms = host.hypervisor().DomainIds();
    std::sort(doms.rbegin(), doms.rend());
    for (DomId dom : doms) {
      if (dom != nephele::kDom0) {
        (void)host.toolstack().DestroyDomain(dom);
      }
    }
  }
  loop.Run();
  for (std::size_t h = 0; h < kHosts; ++h) {
    const nephele::Hypervisor& hv = fabric.host(h).hypervisor();
    if (hv.FreePoolFrames() != free_base[h]) {
      out.violations.push_back("host " + std::to_string(h) + " frames not conserved after teardown");
    }
    if (std::string v = nephele::CheckHypervisorInvariants(hv); !v.empty()) {
      out.violations.push_back("host " + std::to_string(h) + " invariants after teardown: " + v);
    }
  }
  return out;
}

}  // namespace perfbench
