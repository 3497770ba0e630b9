// Calibrated virtual-time cost model.
//
// Every constant is anchored to a measurement reported in the Nephele paper
// (EuroSys'23) for their Xeon E5-1620 v2 testbed, or to the companion systems
// it cites (LightVM, ON-DEMAND-FORK). The *shapes* of the reproduced figures
// come from operation counts the simulation actually performs (Xenstore
// requests issued, pages shared, rings copied, ...); these constants only set
// the per-operation scale. Changing a mechanism (e.g. disabling xs_clone)
// changes the counts and therefore the curves — the model is causal.
//
// All durations are virtual time (src/sim/time.h); no wall clock is used.
//
// There is one model: every Host charges DefaultCostModel(), so a figure's
// virtual times depend only on its workload. Components still take a
// `const CostModel&`, so a unit test can hand one its own.

#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include <cstddef>

#include "src/sim/time.h"

namespace nephele {

struct CostModel {
  // ---------------------------------------------------------------------
  // Hypervisor primitives.
  // ---------------------------------------------------------------------
  // Allocating/freeing one machine frame (list ops + scrub amortized).
  SimDuration frame_alloc = SimDuration::Micros(1.5);
  SimDuration frame_free = SimDuration::Micros(0.4);
  // memcpy of one 4 KiB page (~8 GB/s).
  SimDuration page_copy = SimDuration::Micros(0.5);
  // First-time sharing of a page: ownership transfer to dom_cow + mark RO +
  // refcount. Anchor: Fig. 6 first-clone curve sits above the second-clone
  // curve by roughly 2x in the large-memory regime.
  SimDuration page_share_first = SimDuration::Nanos(150);
  // Re-sharing a page already owned by dom_cow (refcount++ + p2m entry +
  // read-only PTE). Anchor: Fig. 6 second clone 79.2 ms at 4096 MiB
  // (~1 Mi pages) with a ~4.1 ms base -> ~72 ns/page.
  SimDuration page_share_again = SimDuration::Nanos(72);
  // COW fault servicing: fault entry + frame alloc + copy + remap.
  SimDuration cow_fault_fixed = SimDuration::Micros(2.0);
  // Rewriting one private page during cloning (start_info, p2m, page-table
  // pages: copy + edit machine frame numbers).
  SimDuration private_page_rewrite = SimDuration::Micros(1.0);
  // Fixed first-stage overhead: struct domain copy, vCPU state, event
  // channels, grant table. Anchor: Sec. 6.1, "first stage ... takes only
  // 1 ms" for a 4 MiB guest; the per-page terms above contribute the rest.
  SimDuration clone_stage1_fixed = SimDuration::Micros(1200);
  // Per-vCPU state replication.
  SimDuration vcpu_clone = SimDuration::Micros(30);
  // Per grant-table / event-channel entry duplication.
  SimDuration grant_entry_clone = SimDuration::Nanos(80);
  SimDuration evtchn_clone = SimDuration::Nanos(120);
  // Hypercall trap/return.
  SimDuration hypercall = SimDuration::Micros(1.0);
  // clone_reset: restoring one dirty page in a KFX iteration. Anchor:
  // Sec. 7.2 — Unikraft reset ~125 us for ~3 dirty pages, Linux VM ~250 us
  // for ~8 pages, i.e. a fixed part plus ~25-30 us/page.
  SimDuration clone_reset_fixed = SimDuration::Micros(50);
  SimDuration clone_reset_per_page = SimDuration::Micros(25);
  // Lazy (post-copy) cloning. One prefetcher batch pays a fixed wakeup +
  // p2m-walk cost on top of the ordinary per-page share costs; a demand
  // fault on a not-present entry pays a fixed trap + materialise cost before
  // the regular COW resolution. Anchors: the "Virtual Memory Streaming"
  // numbers (arXiv 1406.5760) put post-copy fault servicing within a small
  // factor of a COW fault, and batch wakeups at a few microseconds.
  SimDuration lazy_stream_batch_fixed = SimDuration::Micros(5);
  SimDuration lazy_demand_fault_fixed = SimDuration::Micros(2.5);

  // ---------------------------------------------------------------------
  // Xenstore.
  // ---------------------------------------------------------------------
  // Base cost of one request (socket roundtrip + tree op in oxenstored).
  SimDuration xs_request_base = SimDuration::Micros(350);
  // Store-size-dependent component per request (oxenstored bookkeeping).
  // Anchor: Fig. 4 boot grows 160 -> ~300 ms over 1000 instances with ~36
  // requests per boot and ~26 entries added per domain.
  SimDuration xs_per_entry_scan = SimDuration::Nanos(150);
  // Appending one line to the Xenstore access log.
  SimDuration xs_log_append = SimDuration::Micros(2);
  // Access-log rotation: happens every xs_log_rotate_every requests and is
  // charged to the unlucky request that trips it. Anchor: Fig. 4 spikes
  // reach ~1.5-2.5 s above the baseline; with xs_clone the full 1000-clone
  // run sees only 2 rotations.
  std::size_t xs_log_rotate_every = 2200;
  SimDuration xs_log_rotate = SimDuration::Millis(1500);

  // ---------------------------------------------------------------------
  // Toolstack / Dom0 userspace.
  // ---------------------------------------------------------------------
  // xl process spawn + config parse + libxl init for one boot.
  SimDuration xl_exec_overhead = SimDuration::Millis(95);
  // Scanning one existing domain name during the uniqueness check (disabled
  // in the Fig. 4 baseline, kept for the LightVM-style ablation).
  SimDuration name_check_per_domain = SimDuration::Micros(120);
  // Hotplug script + udev event handling for one device in Dom0.
  SimDuration udev_event = SimDuration::Millis(7);
  // Attaching a vif to a bridge / bond / OVS group (ip + sysfs ops).
  SimDuration switch_attach = SimDuration::Millis(7);
  // Frontend/backend negotiation: one xenbus state transition handshake
  // (beyond its Xenstore traffic). A full negotiation takes several.
  SimDuration xenbus_transition = SimDuration::Millis(4.5);
  // Guest-side boot: Mini-OS/Unikraft init to "UDP server ready".
  SimDuration guest_boot = SimDuration::Millis(15);
  // Stop-and-copy migration: per-page p2m walk on each side, plus wire transfer
  // (~1.2 GB/s over the management network).
  SimDuration migrate_per_page = SimDuration::Nanos(300);
  SimDuration MigrateTransferCost(std::size_t bytes) const {
    return SimDuration::Nanos(static_cast<std::int64_t>(static_cast<double>(bytes) * 0.83));
  }

  // Restore: fixed xc_restore overhead on top of per-page copies.
  // Anchor: Fig. 4 restore sits ~20 ms above boot for a 4 MiB guest.
  SimDuration restore_fixed = SimDuration::Millis(18);
  // Save: serialize p2m + write image.
  SimDuration save_fixed = SimDuration::Millis(12);

  // xencloned second-stage bookkeeping outside Xenstore/udev: anchor
  // Sec. 6.2 — userspace operations average 3 ms on first clone and 1.9 ms
  // afterwards (parent info cached). These values are the *non-cached* and
  // *cached* residual costs; the Xenstore read savings emerge from issuing
  // fewer read requests when the cache hits.
  SimDuration xencloned_fixed = SimDuration::Micros(900);
  SimDuration xencloned_parent_scan = SimDuration::Micros(500);

  // ---------------------------------------------------------------------
  // Linux process baseline (src/baseline). Anchors: Fig. 6 — second fork
  // 0.07 ms at 1 MiB and 65.2 ms at 4096 MiB (~65 ns/PTE, ON-DEMAND-FORK's
  // observation that fork is dominated by page-table copying).
  // ---------------------------------------------------------------------
  SimDuration proc_fork_fixed = SimDuration::Micros(55);
  SimDuration proc_fork_pte_copy = SimDuration::Nanos(65);
  // First fork also walks VMAs and write-protects every PTE.
  SimDuration proc_fork_pte_protect = SimDuration::Nanos(40);
  SimDuration proc_cow_fault = SimDuration::Micros(1.8);
  SimDuration proc_exec = SimDuration::Millis(1.2);

  // ---------------------------------------------------------------------
  // Network datapath.
  // ---------------------------------------------------------------------
  // Per-packet cost through the split driver (grant copy + ring bookkeeping)
  // in each direction.
  SimDuration net_tx_packet = SimDuration::Micros(2);
  SimDuration net_rx_packet = SimDuration::Micros(2);
  // Backend-side vif struct creation on the clone shortcut path (the
  // "14 lines of code" of Sec. 5.2.1 — cheap by design).
  SimDuration netback_clone_fixed = SimDuration::Micros(120);

  // ---------------------------------------------------------------------
  // Storage / 9pfs.
  // ---------------------------------------------------------------------
  // One 9p RPC (open/stat/...), Dom0 ramdisk-backed.
  SimDuration p9_rpc = SimDuration::Micros(40);
  // Throughput term for reads/writes (~1.2 GB/s over the shared ring).
  SimDuration p9_byte = SimDuration::Nanos(1);  // per ~1.2 bytes; see P9WriteCost()
  // Cloning one fid table entry in the shared backend process.
  SimDuration p9_fid_clone = SimDuration::Micros(8);
  // QMP clone request roundtrip to the backend process.
  SimDuration qmp_roundtrip = SimDuration::Micros(600);

  // ---------------------------------------------------------------------
  // Virtual block device (the Sec. 5.3 "new device type" extension).
  // ---------------------------------------------------------------------
  // One blkfront request roundtrip (ring + grant map).
  SimDuration vbd_request = SimDuration::Micros(30);
  // Backend-side disk struct creation on the clone shortcut path.
  SimDuration vbd_clone_fixed = SimDuration::Micros(200);
  // Reference-counting one block when snapshotting a disk table.
  SimDuration vbd_block_ref = SimDuration::Nanos(40);
  // Breaking the sharing of one block on write (allocate + copy 4 KiB).
  SimDuration vbd_block_cow = SimDuration::Micros(3);

  // Helper: ramdisk-backed data transfer (~2 GB/s).
  SimDuration VbdTransferCost(std::size_t bytes) const {
    return SimDuration::Nanos(static_cast<std::int64_t>(static_cast<double>(bytes) * 0.5));
  }

  // ---------------------------------------------------------------------
  // Guest-side work.
  // ---------------------------------------------------------------------
  // Serializing one Redis key to RDB format (dict walk + encode).
  SimDuration redis_serialize_key = SimDuration::Nanos(350);
  // Touching (dirtying) a fresh page from the guest allocator.
  SimDuration guest_touch_page = SimDuration::Nanos(120);

  // ---------------------------------------------------------------------
  // Fuzzing (Sec. 7.2 anchors: 2 exec/s boot-per-input, 470 exec/s with
  // cloning, 590 exec/s native AFL, 320 exec/s Linux-VM kernel module).
  // ---------------------------------------------------------------------
  SimDuration afl_overhead_per_iter = SimDuration::Micros(450);
  SimDuration fuzz_exec_unikraft = SimDuration::Micros(1500);
  SimDuration fuzz_exec_process = SimDuration::Micros(1250);
  SimDuration fuzz_exec_kernel_module = SimDuration::Micros(2690);
  SimDuration kfx_breakpoint_insert = SimDuration::Micros(15);
  SimDuration vm_teardown = SimDuration::Millis(330);

  // Helper: 9p data transfer cost for `bytes` payload bytes (~1.2 GB/s).
  SimDuration P9TransferCost(std::size_t bytes) const {
    return SimDuration::Nanos(static_cast<std::int64_t>(static_cast<double>(bytes) * 0.83));
  }
};

// The simulation normally uses one shared, default-constructed model; tests
// construct their own to probe sensitivity.
const CostModel& DefaultCostModel();

}  // namespace nephele

#endif  // SRC_SIM_COST_MODEL_H_
