// Fork-join data parallelism on unikernel clones: the parent loads a
// dataset, fork()s four workers, each checksums its shard of the COW-shared
// data and reports over an IDC message queue; the workers exit, the parent
// aggregates. fork() + IDC exactly as a POSIX process pool would use
// fork() + pipes (Sec. 2 / 4.3).
//
//   $ ./examples/forkjoin_sum

#include <cstdio>

#include "src/apps/forkjoin_app.h"
#include "src/guest/guest_manager.h"

using namespace nephele;

int main() {
  NepheleSystem system;
  GuestManager guests(system);

  ForkJoinConfig fj;
  fj.dataset_kb = 512;
  fj.workers = 4;

  DomainConfig cfg;
  cfg.name = "forkjoin";
  cfg.memory_mb = 8;
  cfg.max_clones = fj.workers;
  cfg.with_vif = false;

  std::uint64_t total = 0;
  unsigned reported = 0;
  auto app = std::make_unique<ForkJoinApp>(fj);
  ForkJoinApp* raw = app.get();
  app->set_on_done([&](std::uint64_t t, unsigned w) {
    total = t;
    reported = w;
  });

  SimTime t0 = system.Now();
  auto dom = guests.Launch(cfg, std::move(app));
  if (!dom.ok()) {
    std::fprintf(stderr, "launch failed: %s\n", dom.status().ToString().c_str());
    return 1;
  }
  system.Settle();

  std::printf("dataset: %zu KiB, workers: %u clones of dom%u\n", fj.dataset_kb, fj.workers,
              *dom);
  std::printf("collected %u partial sums -> total %llu (expected %llu) in %.1f ms\n", reported,
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(raw->ExpectedSum()),
              (system.Now() - t0).ToMillis());
  std::printf("workers exited; guests alive: %zu; COW pages copied in family: %llu\n",
              guests.NumGuests(),
              static_cast<unsigned long long>(
                  system.metrics().CounterValue("hypervisor/cow/faults")));
  return total == raw->ExpectedSum() && reported == fj.workers ? 0 : 2;
}
