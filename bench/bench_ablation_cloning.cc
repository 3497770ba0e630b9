// Ablations of Nephele's design choices (DESIGN.md §4, last row):
//
//  A. xs_clone vs. per-entry deep copy: Xenstore requests and latency per
//     clone (the mechanism behind Fig. 4's clone-series gap).
//  B. xencloned parent-info cache: first vs. subsequent clone userspace cost.
//  C. xl name-uniqueness scan: the LightVM superlinear boot-time pathology.
//  D. Xenstore access-log rotation: spike counts with logging on/off.
//  E. Ring cloning policy: vif rings are copied, console rings are not.
//
// Usage: bench_ablation_cloning [instances]   (default 300)

#include <cstdio>
#include <cstdlib>

#include "bench/bench_args.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

SystemConfig Pool() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 1024 * 1024;
  return cfg;
}

DomainConfig Vm(const std::string& name, std::uint32_t max_clones) {
  DomainConfig cfg;
  cfg.name = name;
  cfg.memory_mb = 4;
  cfg.max_clones = max_clones;
  return cfg;
}

void AblationXsClone(int n) {
  std::printf("\n# --- Ablation A: xs_clone vs deep copy (%d clones each) ---\n", n);
  for (bool use_xs_clone : {true, false}) {
    NepheleSystem system(Pool());
    GuestManager guests(system);
    system.xencloned().SetUseXsClone(use_xs_clone);
    auto dom = guests.Launch(Vm("p", static_cast<std::uint32_t>(n) + 1),
                             std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    system.Settle();
    std::uint64_t req0 = system.metrics().CounterValue("xenstore/requests/total");
    SimTime t0 = system.Now();
    for (int i = 0; i < n; ++i) {
      (void)guests.ContextOf(*dom)->Fork(1, nullptr);
      system.Settle();
    }
    double ms = (system.Now() - t0).ToMillis() / n;
    double reqs =
        static_cast<double>(system.metrics().CounterValue("xenstore/requests/total") - req0) / n;
    std::printf("# %-11s: %6.2f ms/clone, %5.1f xenstore requests/clone\n",
                use_xs_clone ? "xs_clone" : "deep_copy", ms, reqs);
  }
}

void AblationCache() {
  std::printf("\n# --- Ablation B: xencloned parent-info cache ---\n");
  NepheleSystem system(Pool());
  GuestManager guests(system);
  auto dom = guests.Launch(Vm("p", 8), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system.Settle();
  for (int i = 0; i < 3; ++i) {
    (void)guests.ContextOf(*dom)->Fork(1, nullptr);
    system.Settle();
    std::printf("# clone %d userspace ops: %.3f ms (%s)\n", i + 1,
                system.xencloned().last_second_stage().ToMillis(),
                i == 0 ? "cache miss" : "cache hit");
  }
}

void AblationNameCheck(int n) {
  std::printf("\n# --- Ablation C: xl name-uniqueness scan (boot time, ms) ---\n");
  std::printf("#\tinstances\tno_check\twith_check\n");
  NepheleSystem no_check(Pool());
  GuestManager g1(no_check);
  NepheleSystem with_check(Pool());
  GuestManager g2(with_check);
  with_check.toolstack().SetNameCheckEnabled(true);
  for (int i = 0; i < n; ++i) {
    SimTime a0 = no_check.Now();
    (void)g1.Launch(Vm("vm-" + std::to_string(i), 0),
                    std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    no_check.Settle();
    double a = (no_check.Now() - a0).ToMillis();
    SimTime b0 = with_check.Now();
    (void)g2.Launch(Vm("vm-" + std::to_string(i), 0),
                    std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    with_check.Settle();
    double b = (with_check.Now() - b0).ToMillis();
    if ((i + 1) % (n / 6 > 0 ? n / 6 : 1) == 0) {
      std::printf("#\t%d\t%.2f\t%.2f\n", i + 1, a, b);
    }
  }
}

void AblationAccessLog(int n) {
  std::printf("\n# --- Ablation D: Xenstore access-log rotation spikes ---\n");
  for (bool logging : {true, false}) {
    NepheleSystem system(Pool());
    GuestManager guests(system);
    system.xenstore().SetAccessLogEnabled(logging);
    for (int i = 0; i < n; ++i) {
      (void)guests.Launch(Vm("vm-" + std::to_string(i), 0),
                          std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
      system.Settle();
    }
    std::printf("# access log %-3s: %llu rotations over %d boots\n", logging ? "on" : "off",
                static_cast<unsigned long long>(
                    system.metrics().CounterValue("xenstore/log/rotations")),
                n);
  }
}

void AblationRingPolicy() {
  std::printf("\n# --- Ablation E: ring cloning policy ---\n");
  NepheleSystem system(Pool());
  GuestManager guests(system);
  auto dom = guests.Launch(Vm("p", 4), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system.Settle();
  // Pending console output and RX traffic at clone time.
  (void)system.devices().console().GuestWrite(*dom, "pre-clone console output");
  (void)guests.ContextOf(*dom)->Fork(1, nullptr);
  system.Settle();
  DomId child = system.hypervisor().FindDomain(*dom)->children.front();
  std::printf("# console output copied to clone: %s (policy: never — debugging)\n",
              system.devices().console().Output(child)->empty() ? "no" : "yes");
  GuestDevices* pd = system.toolstack().FindDevices(*dom);
  GuestDevices* cd = system.toolstack().FindDevices(child);
  std::printf("# vif ring capacities parent/child: %zu/%zu (policy: copy both rings)\n",
              pd->net->rx_ring().capacity(), cd->net->rx_ring().capacity());
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {{"instances", 300, "instances per ablation"}});
  int n = static_cast<int>(args.Positional("instances"));
  std::printf("# Cloning design ablations (see DESIGN.md)\n");
  AblationXsClone(n);
  AblationCache();
  AblationNameCheck(n);
  AblationAccessLog(n > 150 ? 150 : n);
  AblationRingPolicy();
  return 0;
}
