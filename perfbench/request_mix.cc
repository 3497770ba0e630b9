// request-mix: the Fig. 12 regime. One host and one parent; CloneScheduler
// keeps a warm pool; RequestCloneDispatcher duplicates every request to d=2
// instances under fig12's heavy service (2048 pages, 100 9p RPCs, 50
// packets). The benchmark draws open-loop Poisson arrivals from its seed and
// posts each Submit at its due time with EventLoop::PostAt, so the program
// sees only the generated requests. The load steps through a ladder of
// fixed offered rates priced from RequestCloneDispatcher::MeanServiceTime;
// every rung drains before the next starts.
//
// op = request, from its due time to the winning response.

#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/hypervisor/invariants.h"
#include "src/load/dispatch.h"
#include "src/sched/scheduler.h"

namespace perfbench {
namespace {

using nephele::DomId;

constexpr unsigned kServers = 8;  // dispatcher max_concurrent
// Offered load as a share of the c servers' capacity. 0.30 is fig12's
// headline rate; the rungs above it find where the 50 ms tail breaks.
constexpr double kLadder[] = {0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90};
constexpr double kHeadlineUtil = 0.30;
constexpr std::size_t kRequestsPerRung = 10000;
// The headline rung sets sim_op_p50/p99 and slo_ratio, so it gets more
// samples: its p99 then has hundreds of requests beyond it.
constexpr std::size_t kHeadlineRequests = 40000;
constexpr std::size_t kWarmupRequests = 400;

struct Rung {
  double rate_rps = 0;
  std::vector<std::int64_t> latencies_ns;  // winning latencies, in win order
  std::uint64_t failed = 0;
  std::size_t in_flight_mid = 0;
  std::size_t in_flight_end = 0;
};

}  // namespace

RepResult RunRequestMix(const RepConfig& cfg) {
  const auto rep_start = std::chrono::steady_clock::now();
  RepResult out;
  InputRng rng(cfg.seed, 0x4e0);

  nephele::SystemConfig sys_cfg;
  sys_cfg.hypervisor.pool_frames = 1024 * 1024;
  sys_cfg.clone_worker_threads = cfg.clone_workers;
  sys_cfg.sched.warm_pool_capacity = 16;
  sys_cfg.sched.max_queue_depth = 64;
  sys_cfg.load.clone_factor = 2;
  sys_cfg.load.max_concurrent = kServers;
  sys_cfg.load.seed = cfg.seed;
  sys_cfg.load.service_pages = 2048;
  sys_cfg.load.service_p9_rpcs = 100;
  sys_cfg.load.service_net_packets = 50;
  nephele::NepheleSystem system(sys_cfg);
  nephele::EventLoop& loop = system.loop();
  nephele::Hypervisor& hv = system.hypervisor();
  Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) {
    tracer->Bind(loop);
  }
  nephele::CloneScheduler sched(system);
  BenchObserver observer(system.clone_engine(), loop, tracer);
  sched.SetCloneExecutor([&](const nephele::CloneRequest& req) {
    ScopedSpan span(tracer, "core.clone");
    auto children = system.clone_engine().Clone(req);
    if (children.ok()) {
      observer.NoteCloneReturn(*children);
    }
    return children;
  });
  nephele::RequestCloneDispatcher dispatcher(system, sched);
  const double mean_service_s =
      nephele::RequestCloneDispatcher::MeanServiceTime(sys_cfg.load, system.costs()).ToSeconds();

  const std::size_t free_before_parent = hv.FreePoolFrames();
  nephele::DomainConfig dcfg;
  dcfg.name = "mix-parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 1u << 20;
  dcfg.with_vif = true;
  nephele::Result<DomId> parent = nephele::ErrInternal("not created");
  {
    ScopedSpan span(tracer, "toolstack.create");
    parent = system.toolstack().CreateDomain(dcfg);
  }
  if (!parent.ok()) {
    out.violations.push_back("parent boot failed: " + parent.status().ToString());
    return out;
  }
  double sim_events = 0;
  auto run = [&](bool timed) {
    ScopedSpan span(tracer, "sim.run");
    const auto events = static_cast<double>(loop.Run());
    sim_events += timed ? events : 0;
  };
  run(false);
  dispatcher.SetParent(*parent);
  const std::size_t alloc_base = hv.TotalPoolFrames() - hv.FreePoolFrames();
  const std::size_t domains_base = hv.NumDomains();
  std::size_t alloc_peak = alloc_base;
  std::size_t live_at_peak = 0;

  std::uint64_t next_id = 1;
  std::vector<double> lag_ms;
  // Posts `count` Poisson arrivals at `rate_rps` starting now; returns the
  // last due time.
  auto post_arrivals = [&](double rate_rps, std::size_t count, bool timed) {
    std::int64_t due_ns = loop.Now().ns();
    for (std::size_t i = 0; i < count; ++i) {
      due_ns += static_cast<std::int64_t>(rng.Exponential(rate_rps) * 1e9);
      nephele::LoadRequest req;
      req.id = next_id++;
      req.user = rng.Between(0, sys_cfg.load.user_population - 1);
      req.arrival = nephele::SimTime(due_ns);
      loop.PostAt(req.arrival, [&, req, timed] {
        if (timed) {
          lag_ms.push_back(static_cast<double>((loop.Now() - req.arrival).ns()) / 1e6);
          const std::size_t alloc = hv.TotalPoolFrames() - hv.FreePoolFrames();
          if (alloc > alloc_peak) {
            alloc_peak = alloc;
            live_at_peak = hv.NumDomains() - domains_base;
          }
        }
        ScopedSpan span(tracer, "load.submit", req.id);
        dispatcher.Submit(req);
      });
    }
    return nephele::SimTime(due_ns);
  };

  // Warm-up at the headline rate fills the warm pool before timing.
  const double headline_rps = kHeadlineUtil * kServers / mean_service_s;
  post_arrivals(headline_rps, kWarmupRequests, false);
  run(false);

  RegistryProbe probe({&system.metrics()});
  const RegistryProbe::Snapshot before = probe.Take();
  const std::int64_t sim_start = loop.Now().ns();
  out.setup_s = ElapsedS(rep_start);
  observer.StartTimedPhase();
  if (tracer != nullptr) {
    tracer->MarkTimed();
  }
  const auto timed_start = std::chrono::steady_clock::now();

  std::vector<Rung> rungs;
  for (double util : kLadder) {
    Rung rung;
    rung.rate_rps = util * kServers / mean_service_s;
    const std::int64_t start_ns = loop.Now().ns();
    const std::uint64_t failed_before = dispatcher.failed();
    const std::size_t requests = util == kHeadlineUtil ? kHeadlineRequests : kRequestsPerRung;
    dispatcher.RecordLatenciesTo(&rung.latencies_ns);
    const nephele::SimTime last_due = post_arrivals(rung.rate_rps, requests, true);
    loop.PostAt(nephele::SimTime(start_ns + (last_due.ns() - start_ns) / 2),
                [&] { rung.in_flight_mid = dispatcher.in_flight(); });
    loop.PostAt(last_due, [&] { rung.in_flight_end = dispatcher.in_flight(); });
    run(true);
    dispatcher.RecordLatenciesTo(nullptr);
    rung.failed = dispatcher.failed() - failed_before;
    out.attempted += requests;
    out.failed += rung.failed;
    if (dispatcher.in_flight() != 0 || dispatcher.pending() != 0) {
      out.violations.push_back("requests left unresolved after a rung drained");
    }
    rungs.push_back(std::move(rung));
  }
  out.timed_wall_s = ElapsedS(timed_start);
  const double makespan_s = static_cast<double>(loop.Now().ns() - sim_start) / 1e9;
  const RegistryProbe::Snapshot after = probe.Take();
  const Delta delta(before, after);
  out.digest = std::to_string(Fnv1a(system.metrics().ExportJson()));

  // --- End-to-end (virtual) ---
  MetricMap& m = out.virt;
  double wins = 0;
  double capacity_rps = 0;
  const Rung* headline = nullptr;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    wins += static_cast<double>(r.latencies_ns.size());
    std::vector<double> ms;
    for (std::int64_t ns : r.latencies_ns) {
      ms.push_back(static_cast<double>(ns) / 1e6);
    }
    const bool growing = r.in_flight_end > r.in_flight_mid + kServers;
    if (Quantile(ms, 0.99) <= kLatencyLimitMs && r.failed == 0 && !growing) {
      capacity_rps = r.rate_rps;
    }
    if (kLadder[i] == kHeadlineUtil) {
      headline = &r;
    }
  }
  std::vector<double> headline_ms;
  std::size_t within = 0;
  for (std::int64_t ns : headline->latencies_ns) {
    headline_ms.push_back(static_cast<double>(ns) / 1e6);
    within += headline_ms.back() <= kLatencyLimitMs ? 1 : 0;
  }
  m["sim_op_p50_ms"] = Quantile(headline_ms, 0.50);
  m["sim_op_p99_ms"] = Quantile(headline_ms, 0.99);
  m["sim_op_samples"] = static_cast<double>(headline_ms.size());
  m["sim_ops_per_s"] = makespan_s > 0 ? wins / makespan_s : 0.0;
  m["sim_capacity_rps"] = capacity_rps;
  m["latency_limit_ms"] = kLatencyLimitMs;
  m["slo_ratio"] = static_cast<double>(within) / static_cast<double>(kHeadlineRequests);
  m["mem_per_instance_kib"] =
      live_at_peak == 0 ? 0.0
                        : static_cast<double>(alloc_peak - alloc_base) * 4.0 /
                              static_cast<double>(live_at_peak);

  // --- Per layer ---
  FillRegistryLayers(delta, static_cast<double>(out.attempted), m);
  m["sim.events"] = sim_events;
  m["sim.timed_s"] = makespan_s;
  m["toolstack.create.calls"] = 1;
  m["toolstack.boot.sim_ms"] =
      Delta(RegistryProbe::Snapshot{}, before).HistMean("toolstack/boot/duration_ns") / 1e6;
  m["core.xencloned.stage2_sim_ms.p50"] = Quantile(observer.stage2_ms(), 0.50);
  m["core.xencloned.stage2_sim_ms.p99"] = Quantile(observer.stage2_ms(), 0.99);
  m["hypervisor.frames_allocated_peak"] = static_cast<double>(alloc_peak);
  m["load.arrival_lag_ms.p99"] = Quantile(lag_ms, 0.99);
  m["load.capacity_rps"] = capacity_rps;
  m["obs.trace_dropped"] = static_cast<double>(system.trace().dropped_events());

  // --- Correctness ---
  const nephele::MetricsRegistry& reg = system.metrics();
  if (reg.CounterValue("req/dispatched") != reg.CounterValue("req/wins") +
                                                reg.CounterValue("req/cancelled") +
                                                reg.CounterValue("req/rejected")) {
    out.violations.push_back("req/dispatched != req/wins + req/cancelled + req/rejected");
  }
  if (std::string v = nephele::CheckHypervisorInvariants(hv); !v.empty()) {
    out.violations.push_back("invariants after the ladder: " + v);
  }
  sched.DrainAll();
  (void)system.toolstack().DestroyDomain(*parent);
  loop.Run();
  if (hv.FreePoolFrames() != free_before_parent) {
    out.violations.push_back("frames not conserved after teardown: " +
                             std::to_string(hv.FreePoolFrames()) + " free, expected " +
                             std::to_string(free_before_parent));
  }
  if (std::string v = nephele::CheckHypervisorInvariants(hv); !v.empty()) {
    out.violations.push_back("invariants after teardown: " + v);
  }
  return out;
}

}  // namespace perfbench
