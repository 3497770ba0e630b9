// Figure 8 — Redis database saving times vs. number of keys.
//
// Sec. 7.1 methodology: Redis runs (a) as a process inside an Alpine Linux
// VM and (b) as a Unikraft guest, both saving the in-memory database to a
// 9pfs share backed by a Dom0 ramdisk. A first BGSAVE right after boot marks
// the address space COW; the figure reports the SECOND fork/clone duration
// (after mass insertion) and the full database save time, plus the flat
// userspace-operations cost of I/O cloning (toolstack introduction + 9pfs
// fid cloning; network devices are skipped — the clones need no vif).
//
// Usage: bench_fig08_redis_save

#include <cstdio>

#include "bench/bench_args.h"
#include "src/apps/redis_app.h"
#include "src/baseline/linux_process.h"
#include "src/guest/guest_manager.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

constexpr std::size_t kBytesPerKey = 100;

struct UnikraftSample {
  double clone_ms = 0;
  double save_ms = 0;
  double userspace_ms = 0;
};

UnikraftSample MeasureUnikraft(std::size_t keys) {
  UnikraftSample out;
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 256 * 1024;
  NepheleSystem system(scfg);
  GuestManager guests(system);
  (void)system.devices().hostfs().CreateFile("/srv/guest-root/redis.conf");

  DomainConfig cfg;
  cfg.name = "redis";
  cfg.memory_mb = 256;
  cfg.max_clones = 16;
  cfg.with_vif = false;  // I/O cloning covers only the devices clones need
  cfg.with_p9fs = true;
  auto dom = guests.Launch(cfg, std::make_unique<RedisApp>(RedisConfig{}));
  if (!dom.ok()) {
    std::fprintf(stderr, "redis launch failed: %s\n", dom.status().ToString().c_str());
    return out;
  }
  system.Settle();
  auto* redis = dynamic_cast<RedisApp*>(guests.AppOf(*dom));
  GuestContext* ctx = guests.ContextOf(*dom);

  // First save right after initialization: marks memory COW (not reported).
  (void)redis->Save(*ctx);
  system.Settle();

  // Mass insertion, then the measured save.
  (void)redis->MassInsert(*ctx, keys);
  SimTime save_start = system.Now();
  (void)redis->Save(*ctx);
  system.Settle();
  // The fork duration is the parent's blocked time: CLONEOP call until the
  // hypervisor unpauses it after second-stage completion.
  out.clone_ms = (system.clone_engine().last_parent_resume() - save_start).ToMillis();
  out.save_ms = (system.Now() - save_start).ToMillis();
  out.userspace_ms = system.xencloned().last_second_stage().ToMillis();
  return out;
}

struct ProcessSample {
  double fork_ms = 0;
  double save_ms = 0;
};

// Redis as a process inside a Linux VM, dump written over 9pfs.
ProcessSample MeasureVmProcess(std::size_t keys) {
  ProcessSample out;
  EventLoop loop;
  const CostModel& costs = DefaultCostModel();
  LinuxProcessModel model(loop, costs);
  HostFs fs;
  (void)fs.CreateFile("/export/dump.rdb");
  MetricsRegistry metrics;
  FaultInjector faults(metrics);
  P9BackendRegistry p9(loop, costs, fs, *faults.GetPoint("devices/p9_clone"));

  std::size_t resident_mb = 16 + keys * kBytesPerKey / kMiB;  // baseline + dataset
  auto pid = model.Spawn(resident_mb);
  // First fork right after init (COW marking; not reported).
  auto warm = model.Fork(*pid);
  (void)model.Exit(*warm);

  SimTime t0 = loop.Now();
  auto saver = model.Fork(*pid);
  out.fork_ms = (loop.Now() - t0).ToMillis();

  // The child serializes and writes the dump through 9pfs.
  auto proc = p9.LaunchForDomain(7, "/export");
  std::size_t bytes = keys * kBytesPerKey;
  loop.AdvanceBy(costs.redis_serialize_key * static_cast<double>(keys));
  auto root = (*proc)->Attach(7);
  auto fid = (*proc)->Create(7, *root, "dump.rdb");
  (void)(*proc)->Write(7, *fid, 0, std::vector<std::uint8_t>(bytes, 0xAB));
  (void)(*proc)->Clunk(7, *fid);
  (void)model.Exit(*saver);
  out.save_ms = (loop.Now() - t0).ToMillis();
  return out;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {});
  (void)args;
  SeriesTable table("Figure 8: Redis database saving times vs #keys (ms, log-log)",
                    {"keys", "vm_process_fork", "vm_process_save", "unikraft_clone",
                     "unikraft_save", "userspace_ops"});
  for (std::size_t keys : {0ul, 1ul, 10ul, 100ul, 1000ul, 10000ul, 100000ul, 1000000ul}) {
    ProcessSample p = MeasureVmProcess(keys);
    UnikraftSample u = MeasureUnikraft(keys);
    table.AddRow({static_cast<double>(keys), p.fork_ms, p.save_ms, u.clone_ms, u.save_ms,
                  u.userspace_ms});
  }
  table.Print();

  auto keys_col = table.Column(0);
  auto psave = table.Column(2);
  auto usave = table.Column(4);
  PrintSummary("save-time ratio unikraft/process at 0 keys", usave.front() / psave.front(),
               "x");
  PrintSummary("save-time ratio unikraft/process at 1M keys", usave.back() / psave.back(),
               "x");
  return 0;
}
