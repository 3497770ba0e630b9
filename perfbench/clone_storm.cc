// clone-storm: Figs. 4-5 at paper scale. One host with the paper's 12 GiB
// pool; a few parents of seeded memory size (mostly the 4 MiB Mini-OS UDP
// guest of Fig. 4) behind a Bond; forked one CLONEOP at a time through
// GuestManager with xs_clone. Each child sends its readiness packet, then
// dirties a seeded number of heap pages. Nothing is destroyed until the
// teardown check, so Xenstore and the frame pool grow as in Fig. 5.
//
// op = fork -> ready: from the Fork call to the child's readiness packet at
// the host uplink.

#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/hypervisor/invariants.h"
#include "src/net/switch.h"

namespace perfbench {
namespace {

using nephele::DomId;

constexpr std::size_t kForks = 3000;
constexpr std::size_t kParents = 4;
constexpr std::uint16_t kFirstChildPort = 20000;
// Fig. 4's anchor: clone (xs_clone) ready 20 -> 30 ms over instances 1 ->
// 1000, so a mean of 25 ms over the first 1000 instances.
constexpr double kPaperCloneMeanMs = 25.0;
constexpr std::size_t kPaperCloneWindow = 1000;
// Fig. 5's anchor: 1.6 MiB per clone.
constexpr double kPaperMemPerCloneMib = 1.6;

struct ForkPlan {
  std::size_t parent = 0;
  std::size_t dirty_pages = 0;
};

struct Inputs {
  std::vector<std::size_t> parent_mb;  // parent 0 is the Fig. 4 guest
  std::vector<ForkPlan> forks;
};

Inputs MakeInputs(std::uint64_t seed) {
  InputRng rng(seed, 0xc10e);
  Inputs in;
  // The seed orders the larger parents; their sizes stay one each of 8, 16
  // and 32 MiB so that every seed asks the simulator for similar work.
  in.parent_mb = {4, 8, 16, 32};
  for (std::size_t p = kParents - 1; p > 1; --p) {
    std::swap(in.parent_mb[p], in.parent_mb[rng.Between(1, p)]);
  }
  for (std::size_t i = 0; i < kForks; ++i) {
    ForkPlan f;
    f.parent = rng.Uniform() < 0.8 ? 0 : rng.Between(1, kParents - 1);
    f.dirty_pages = rng.Between(0, 64);
    in.forks.push_back(f);
  }
  return in;
}

}  // namespace

RepResult RunCloneStorm(const RepConfig& cfg) {
  const auto rep_start = std::chrono::steady_clock::now();
  const Inputs in = MakeInputs(cfg.seed);
  RepResult out;

  nephele::SystemConfig sys_cfg;
  sys_cfg.hypervisor.pool_frames = 12ull * nephele::kGiB / nephele::kPageSize;
  sys_cfg.clone_worker_threads = cfg.clone_workers;
  nephele::NepheleSystem system(sys_cfg);
  nephele::EventLoop& loop = system.loop();
  nephele::Hypervisor& hv = system.hypervisor();
  Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) {
    tracer->Bind(loop);
  }
  nephele::GuestManager guests(system);
  BenchObserver observer(system.clone_engine(), loop, tracer);
  nephele::Bond bond;  // stateless switching: one MAC/IP for the family
  system.toolstack().SetDefaultSwitch(&bond);
  system.xencloned().SetUseXsClone(true);

  std::vector<std::int64_t> ready_ns(kForks, -1);
  std::uint64_t ready_packets = 0;
  bond.set_uplink_sink([&](const nephele::Packet& p) {
    if (p.dst_port == 9999 && p.src_port >= kFirstChildPort &&
        p.src_port < kFirstChildPort + kForks) {
      ready_ns[p.src_port - kFirstChildPort] = loop.Now().ns();
      ++ready_packets;
    }
  });

  const std::size_t free_before_parents = hv.FreePoolFrames();
  std::vector<DomId> parents;
  double sim_events = 0;
  for (std::size_t p = 0; p < kParents; ++p) {
    nephele::DomainConfig dcfg;
    dcfg.name = "storm-parent-" + std::to_string(p);
    dcfg.memory_mb = in.parent_mb[p];
    dcfg.max_clones = static_cast<std::uint32_t>(kForks);
    nephele::UdpReadyConfig app_cfg;
    app_cfg.src_port = static_cast<std::uint16_t>(10000 + p);
    ScopedSpan span(tracer, "toolstack.create");
    auto dom = guests.Launch(dcfg, std::make_unique<nephele::UdpReadyApp>(app_cfg));
    if (!dom.ok()) {
      out.violations.push_back("parent boot failed: " + dom.status().ToString());
      return out;
    }
    parents.push_back(*dom);
  }
  {
    ScopedSpan span(tracer, "sim.run");
    loop.Run();
  }

  RegistryProbe probe({&system.metrics()});
  const RegistryProbe::Snapshot before = probe.Take();
  const std::size_t free_base = hv.FreePoolFrames();
  const std::int64_t sim_start = loop.Now().ns();
  out.setup_s = ElapsedS(rep_start);
  observer.StartTimedPhase();
  if (tracer != nullptr) {
    tracer->MarkTimed();
  }
  const auto timed_start = std::chrono::steady_clock::now();

  std::vector<double> latency_ms;
  latency_ms.reserve(kForks);
  std::vector<double> paper_latency_ms;
  std::vector<double> paper_frames;
  std::vector<DomId> children;
  for (std::size_t i = 0; i < kForks; ++i) {
    const ForkPlan& plan = in.forks[i];
    const auto port = static_cast<std::uint16_t>(kFirstChildPort + i);
    const std::size_t dirty_bytes = plan.dirty_pages * nephele::kPageSize;
    const std::int64_t start_ns = loop.Now().ns();
    const std::size_t free_at_start = hv.FreePoolFrames();
    const std::uint64_t copies_at_start = observer.cow_copies();
    ScopedSpan op_span(tracer, "op", i + 1);
    nephele::Result<std::vector<DomId>> forked = std::vector<DomId>{};
    {
      ScopedSpan fork_span(tracer, "guest.fork", i + 1);
      forked = guests.ForkChildren(
          parents[plan.parent], 1,
          [port, dirty_bytes](nephele::GuestContext& ctx, nephele::GuestApp& self,
                              const nephele::ForkResult& r) {
            if (!r.is_child) {
              return;
            }
            auto& app = static_cast<nephele::UdpReadyApp&>(self);
            app.config().src_port = port;
            app.SendReady(ctx);
            if (dirty_bytes > 0) {
              // After the readiness packet has left: the dirtying is the
              // child's own work, not part of its time to ready.
              ctx.Post(nephele::SimDuration::Millis(1), [dirty_bytes](nephele::GuestContext& c) {
                (void)c.arena().Allocate(dirty_bytes);
              });
            }
          });
      if (tracer != nullptr && tracer->Innermost("core.clone")) {
        tracer->End();
      }
    }
    ++out.attempted;
    if (!forked.ok() || forked->size() != 1) {
      ++out.failed;
      continue;
    }
    observer.NoteCloneReturn(*forked);
    children.push_back(forked->front());
    {
      ScopedSpan run_span(tracer, "sim.run", i + 1);
      sim_events += static_cast<double>(loop.Run());
    }
    if (ready_ns[i] < 0) {
      ++out.failed;
      continue;
    }
    const double ms = static_cast<double>(ready_ns[i] - start_ns) / 1e6;
    latency_ms.push_back(ms);
    if (plan.parent == 0) {
      if (i < kPaperCloneWindow) {
        paper_latency_ms.push_back(ms);
      }
      paper_frames.push_back(static_cast<double>(free_at_start - hv.FreePoolFrames()) -
                             static_cast<double>(observer.cow_copies() - copies_at_start));
    }
  }
  out.timed_wall_s = ElapsedS(timed_start);
  const double makespan_s = static_cast<double>(loop.Now().ns() - sim_start) / 1e9;
  const RegistryProbe::Snapshot after = probe.Take();
  const Delta delta(before, after);
  out.digest = std::to_string(Fnv1a(system.metrics().ExportJson()));

  // --- End-to-end (virtual) ---
  MetricMap& m = out.virt;
  const double ops = static_cast<double>(latency_ms.size());
  std::size_t within = 0;
  for (double ms : latency_ms) {
    within += ms <= kLatencyLimitMs ? 1 : 0;
  }
  m["sim_op_p50_ms"] = Quantile(latency_ms, 0.50);
  m["sim_op_p99_ms"] = Quantile(latency_ms, 0.99);
  m["sim_op_samples"] = ops;
  m["sim_ops_per_s"] = makespan_s > 0 ? ops / makespan_s : 0.0;
  m["latency_limit_ms"] = kLatencyLimitMs;
  m["slo_ratio"] = static_cast<double>(within) / static_cast<double>(out.attempted);
  const double frames_used = static_cast<double>(free_base - hv.FreePoolFrames());
  m["mem_per_instance_kib"] =
      children.empty() ? 0.0 : frames_used * 4.0 / static_cast<double>(children.size());
  m["paper_clone_err_pct"] =
      100.0 * std::abs(Mean(paper_latency_ms) - kPaperCloneMeanMs) / kPaperCloneMeanMs;
  m["paper_mem_err_pct"] =
      100.0 * std::abs(Mean(paper_frames) * 4.0 / 1024.0 - kPaperMemPerCloneMib) /
      kPaperMemPerCloneMib;

  // --- Per layer ---
  FillRegistryLayers(delta, ops, m);
  m["sim.events"] = sim_events;
  m["sim.timed_s"] = makespan_s;
  m["toolstack.create.calls"] = static_cast<double>(kParents);
  m["toolstack.boot.sim_ms"] =
      Delta(RegistryProbe::Snapshot{}, before).HistMean("toolstack/boot/duration_ns") / 1e6;
  m["guest.fork.calls"] = static_cast<double>(out.attempted);
  m["core.xencloned.stage2_sim_ms.p50"] = Quantile(observer.stage2_ms(), 0.50);
  m["core.xencloned.stage2_sim_ms.p99"] = Quantile(observer.stage2_ms(), 0.99);
  m["hypervisor.frames_allocated_peak"] =
      static_cast<double>(hv.TotalPoolFrames() - hv.FreePoolFrames());
  m["net.ready_packets"] = static_cast<double>(ready_packets);
  m["obs.trace_dropped"] = static_cast<double>(system.trace().dropped_events());

  // --- Correctness ---
  if (ready_packets != children.size()) {
    out.violations.push_back("readiness packets " + std::to_string(ready_packets) + " != children " +
                             std::to_string(children.size()));
  }
  if (std::string v = nephele::CheckHypervisorInvariants(hv); !v.empty()) {
    out.violations.push_back("invariants after the storm: " + v);
  }
  for (auto it = children.rbegin(); it != children.rend(); ++it) {
    if (nephele::Status s = guests.Destroy(*it); !s.ok()) {
      out.violations.push_back("destroy child: " + s.ToString());
      break;
    }
  }
  for (DomId p : parents) {
    (void)guests.Destroy(p);
  }
  loop.Run();
  if (hv.FreePoolFrames() != free_before_parents) {
    out.violations.push_back("frames not conserved after teardown: " +
                             std::to_string(hv.FreePoolFrames()) + " free, expected " +
                             std::to_string(free_before_parents));
  }
  if (std::string v = nephele::CheckHypervisorInvariants(hv); !v.empty()) {
    out.violations.push_back("invariants after teardown: " + v);
  }
  return out;
}

}  // namespace perfbench
