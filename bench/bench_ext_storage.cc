// Extension experiments (not in the paper — ours, for the Sec. 5.3 vbd
// device type and the Sec. 6.2 "losses" discussion):
//
//  1. Disk clone time vs disk size: snapshotting a block table is O(blocks)
//     reference counting — the storage twin of Fig. 6's memory curves.
//  2. Disk density: clones cost only their divergence, like Fig. 5.
//  3. Post-clone COW write overhead: the first write to a shared page pays
//     the fault + copy; subsequent writes are free (Sec. 6.2: "creating
//     copies of memory pages on write operations generate an overhead on
//     the operations themselves").

#include <cstdio>

#include "bench/bench_args.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

void DiskCloneTimes() {
  SeriesTable table("Extension 1: vbd disk clone time vs size (ms)",
                    {"disk_mb", "create_ms", "clone_ms", "full_copy_ms_est"});
  for (std::size_t mb : {16ul, 64ul, 256ul, 1024ul, 4096ul}) {
    EventLoop loop;
    MetricsRegistry metrics;
    FaultInjector faults(metrics);
    VbdBackend backend(loop, DefaultCostModel(), *faults.GetPoint("devices/vbd_clone"));
    SimTime t0 = loop.Now();
    (void)backend.CreateDisk(DeviceId{1, DeviceType::kVbd, 0}, mb);
    SimTime t1 = loop.Now();
    (void)backend.CloneDisk(DeviceId{1, DeviceType::kVbd, 0}, DeviceId{2, DeviceType::kVbd, 0});
    SimTime t2 = loop.Now();
    // A naive qcow-less copy would transfer every byte (~2 GB/s).
    double full_copy_ms =
        DefaultCostModel().VbdTransferCost(mb * kMiB).ToMillis();
    table.AddRow({static_cast<double>(mb), (t1 - t0).ToMillis(), (t2 - t1).ToMillis(),
                  full_copy_ms});
  }
  table.Print();
}

void DiskDensity() {
  EventLoop loop;
  MetricsRegistry metrics;
  FaultInjector faults(metrics);
  VbdBackend backend(loop, DefaultCostModel(), *faults.GetPoint("devices/vbd_clone"));
  const std::size_t disk_mb = 64;
  (void)backend.CreateDisk(DeviceId{1, DeviceType::kVbd, 0}, disk_mb);
  // Populate 8 MiB of the base image.
  std::vector<std::uint8_t> data(kVbdBlockSize, 0x11);
  for (std::size_t b = 0; b < 8 * kMiB / kVbdBlockSize; ++b) {
    (void)backend.Write(DeviceId{1, DeviceType::kVbd, 0}, b * kVbdBlockSize, data.data(),
                        data.size());
  }
  std::size_t base_blocks = backend.store().live_blocks();
  const int kClones = 50;
  for (int i = 0; i < kClones; ++i) {
    DeviceId child{static_cast<DomId>(100 + i), DeviceType::kVbd, 0};
    (void)backend.CloneDisk(DeviceId{1, DeviceType::kVbd, 0}, child);
    // Each clone diverges by 1 MiB of writes.
    for (std::size_t b = 0; b < kMiB / kVbdBlockSize; ++b) {
      (void)backend.Write(child, b * kVbdBlockSize, data.data(), data.size());
    }
  }
  std::size_t blocks_after = backend.store().live_blocks();
  double per_clone_mb = static_cast<double>(blocks_after - base_blocks) * kVbdBlockSize /
                        kClones / static_cast<double>(kMiB);
  PrintSummary("Extension 2: disk blocks per clone (1 MiB divergence)", per_clone_mb, "MiB");
  PrintSummary("Extension 2: naive per-clone cost would be",
               static_cast<double>(disk_mb), "MiB");
}

void CowWriteOverhead() {
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 64 * 1024;
  NepheleSystem system(scfg);
  GuestManager guests(system);
  DomainConfig cfg;
  cfg.name = "coww";
  cfg.memory_mb = 16;
  cfg.max_clones = 2;
  cfg.with_vif = false;
  auto dom = guests.Launch(cfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system.Settle();
  GuestMemoryLayout layout = ComputeGuestLayout(cfg);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  const int kPages = 512;

  // Baseline: writes to private pages.
  std::uint8_t v = 1;
  SimTime t0 = system.Now();
  for (int i = 0; i < kPages; ++i) {
    (void)system.hypervisor().WriteGuestPage(*dom, gfn + static_cast<Gfn>(i), 0, &v, 1);
  }
  double private_us = (system.Now() - t0).ToMicros() / kPages;

  // Clone, then write the now-shared pages: each write COW-faults once.
  (void)guests.ContextOf(*dom)->Fork(1, nullptr);
  system.Settle();
  SimTime t1 = system.Now();
  for (int i = 0; i < kPages; ++i) {
    (void)system.hypervisor().WriteGuestPage(*dom, gfn + static_cast<Gfn>(i), 0, &v, 1);
  }
  double cow_us = (system.Now() - t1).ToMicros() / kPages;

  // Second pass: sharing already broken, back to baseline.
  SimTime t2 = system.Now();
  for (int i = 0; i < kPages; ++i) {
    (void)system.hypervisor().WriteGuestPage(*dom, gfn + static_cast<Gfn>(i), 0, &v, 1);
  }
  double after_us = (system.Now() - t2).ToMicros() / kPages;

  PrintSummary("Extension 3: private page write", private_us, "us/page");
  PrintSummary("Extension 3: first write after clone (COW fault+copy)", cow_us, "us/page");
  PrintSummary("Extension 3: second write after clone", after_us, "us/page");
  PrintSummary("Extension 3: COW pages copied",
               static_cast<double>(system.hypervisor().FindDomain(*dom)->cow_pages_copied));
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {});
  (void)args;
  std::printf("# Storage & COW extension experiments (see DESIGN.md)\n");
  DiskCloneTimes();
  DiskDensity();
  CowWriteOverhead();
  return 0;
}
