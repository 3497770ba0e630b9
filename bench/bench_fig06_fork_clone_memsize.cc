// Figure 6 — fork() and cloning duration vs. resident allocation size.
//
// The memapp workload allocates a resident chunk (1 MiB .. 4096 MiB) and is
// then duplicated twice: as a Linux process (fork) and as a Unikraft VM
// (Nephele clone). Sec. 6.2 methodology: I/O devices are skipped; only the
// mandatory second-stage operations run. The first call is always slower
// (COW marking / first-time dom_cow transfer); the figure reports both,
// plus the flat userspace-operations series (3 ms first / 1.9 ms cached).
//
// Usage: bench_fig06_fork_clone_memsize [repetitions]   (default 3; paper: 10)

#include <cstdio>
#include <cstdlib>

#include "bench/bench_args.h"
#include "src/apps/mem_app.h"
#include "src/baseline/linux_process.h"
#include "src/guest/guest_manager.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

struct Sample {
  double fork1_ms = 0;
  double fork2_ms = 0;
  double clone1_ms = 0;
  double clone2_ms = 0;
  double userspace1_ms = 0;
  double userspace2_ms = 0;
};

Sample MeasureOne(std::size_t alloc_mb) {
  Sample s;
  // --- Linux process ---
  {
    EventLoop loop;
    LinuxProcessModel model(loop, DefaultCostModel());
    auto pid = model.Spawn(alloc_mb);
    SimTime t0 = loop.Now();
    auto c1 = model.Fork(*pid);
    s.fork1_ms = (loop.Now() - t0).ToMillis();
    (void)model.Exit(*c1);
    SimTime t1 = loop.Now();
    auto c2 = model.Fork(*pid);
    s.fork2_ms = (loop.Now() - t1).ToMillis();
    (void)model.Exit(*c2);
  }
  // --- Unikraft VM ---
  {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = (alloc_mb + 64) * 3 * kMiB / kPageSize;
    NepheleSystem system(cfg);
    GuestManager guests(system);
    DomainConfig dcfg;
    dcfg.name = "memapp";
    dcfg.memory_mb = alloc_mb + 8;  // app chunk + unikernel image/heap slack
    dcfg.max_clones = 8;
    dcfg.with_vif = false;  // Sec. 6.2: I/O device cloning skipped
    auto dom = guests.Launch(dcfg, std::make_unique<MemApp>(MemAppConfig{alloc_mb, 4000}));
    if (!dom.ok()) {
      std::fprintf(stderr, "launch failed: %s\n", dom.status().ToString().c_str());
      return s;
    }
    system.Settle();

    SimTime t0 = system.Now();
    (void)guests.ContextOf(*dom)->Fork(1, nullptr);
    system.Settle();
    s.clone1_ms = (system.Now() - t0).ToMillis();
    s.userspace1_ms = system.xencloned().last_second_stage().ToMillis();

    SimTime t1 = system.Now();
    (void)guests.ContextOf(*dom)->Fork(1, nullptr);
    system.Settle();
    s.clone2_ms = (system.Now() - t1).ToMillis();
    s.userspace2_ms = system.xencloned().last_second_stage().ToMillis();
  }
  return s;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {{"reps", 3, "repetitions per size"}});
  int reps = static_cast<int>(args.Positional("reps"));

  SeriesTable table(
      "Figure 6: fork/clone duration vs allocation size (ms, log-log in the paper)",
      {"alloc_mb", "process_fork1", "process_fork2", "unikraft_clone1", "unikraft_clone2",
       "userspace_ops_first", "userspace_ops_cached"});

  for (std::size_t mb : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}) {
    RunningStat f1, f2, c1, c2, u1, u2;
    for (int r = 0; r < reps; ++r) {
      Sample s = MeasureOne(mb);
      f1.Add(s.fork1_ms);
      f2.Add(s.fork2_ms);
      c1.Add(s.clone1_ms);
      c2.Add(s.clone2_ms);
      u1.Add(s.userspace1_ms);
      u2.Add(s.userspace2_ms);
    }
    table.AddRow({static_cast<double>(mb), f1.mean(), f2.mean(), c1.mean(), c2.mean(),
                  u1.mean(), u2.mean()});
  }
  table.Print();

  // Headline anchors from Sec. 6.2.
  auto col = [&](std::size_t c) { return table.Column(c); };
  double fork2_small = col(2).front(), clone2_small = col(4).front();
  double fork2_big = col(2).back(), clone2_big = col(4).back();
  PrintSummary("2nd fork vs 2nd clone gap at 1 MiB",
               (clone2_small - fork2_small) / fork2_small * 100.0, "%");
  PrintSummary("2nd fork vs 2nd clone gap at 4096 MiB",
               (clone2_big - fork2_big) / fork2_big * 100.0, "%");
  PrintSummary("userspace ops, first clone", col(5).front(), "ms");
  PrintSummary("userspace ops, cached", col(6).back(), "ms");
  return 0;
}
