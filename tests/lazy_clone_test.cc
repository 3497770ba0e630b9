// Post-copy (lazy) cloning suite (ctest label `lazy`): a fully-streamed lazy
// clone must be observationally identical to an eager one — same guest
// memory, same p2m topology and writability, same pool level — at every
// clone-worker count; the stream and demand-fault counters must move by
// exactly the pages they claim; a half-streamed child must tear down without
// leaking a frame in either destruction order; the invariant oracle must
// flag corrupted partially-mapped state; the scheduler must finish a child's
// stream before parking it; and the stream_stall alarm must raise while the
// backlog never drains and clear once it does.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/hypervisor/invariants.h"
#include "src/obs/tsdb/alarm.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/scheduler.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

constexpr std::uint8_t kStamp[16] = {0x4c, 0x41, 0x5a, 0x59, 9, 8, 7, 6,
                                     5,    4,    3,    2,    1, 0, 1, 2};

SystemConfig LazySystem(unsigned workers, bool manual_stream) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  cfg.clone_worker_threads = workers;
  if (manual_stream) {
    cfg.lazy_clone.auto_stream = false;
  }
  return cfg;
}

DomainConfig GuestConfig() {
  DomainConfig cfg;
  cfg.name = "lazy";
  cfg.memory_mb = 4;
  cfg.max_clones = 128;
  cfg.with_vif = true;
  return cfg;
}

Gfn FirstDataGfn() { return static_cast<Gfn>(GuestConfig().image_text_pages); }

// Boot a parent and stamp a few data pages so clones carry real content.
DomId BootStampedParent(NepheleSystem& sys) {
  auto parent = sys.toolstack().CreateDomain(GuestConfig());
  EXPECT_TRUE(parent.ok()) << parent.status().ToString();
  sys.Settle();
  for (Gfn i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        sys.hypervisor().WriteGuestPage(*parent, FirstDataGfn() + i, 0, kStamp, sizeof(kStamp))
            .ok());
  }
  return *parent;
}

Result<std::vector<DomId>> CloneBatch(NepheleSystem& sys, DomId parent, unsigned n, bool lazy) {
  const Domain* d = sys.hypervisor().FindDomain(parent);
  auto children = sys.clone_engine().Clone({parent, parent, d->p2m[d->start_info_gfn].mfn, n, lazy});
  sys.Settle();
  return children;
}

// FNV-1a over the observable machine state a guest could distinguish: family
// topology, per-gfn role/writability/presence and frame CONTENT, plus the
// pool level. Deliberately excludes raw mfn values, metrics and virtual
// time — lazy streaming spends different simulated work than an eager copy,
// but must land on the same machine.
std::uint64_t StateDigest(NepheleSystem& sys) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto add = [&h](const void* bytes, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  auto add_val = [&add](auto v) { add(&v, sizeof(v)); };
  std::uint8_t page[kPageSize];
  for (DomId id : sys.hypervisor().DomainIds()) {
    const Domain* dom = sys.hypervisor().FindDomain(id);
    add_val(id);
    add_val(dom->parent);
    add_val(dom->family_root);
    for (Gfn gfn = 0; gfn < dom->p2m.size(); ++gfn) {
      const P2mEntry& e = dom->p2m[gfn];
      add_val(gfn);
      add_val(static_cast<int>(e.role));
      add_val(e.writable);
      add_val(e.mfn != kInvalidMfn);
      if (e.mfn != kInvalidMfn) {
        sys.hypervisor().frames().ReadBytes(e.mfn, 0, page, kPageSize);
        add(page, kPageSize);
      }
    }
  }
  add_val(sys.hypervisor().FreePoolFrames());
  return h;
}

// One workload at a given worker count: boot, stamp, clone a 4-batch (eager
// or lazy), fully stream every lazy child, then COW-write in the first
// child. Returns the end-state digest.
std::uint64_t RunWorkload(unsigned workers, bool lazy) {
  NepheleSystem sys(LazySystem(workers, /*manual_stream=*/lazy));
  const DomId parent = BootStampedParent(sys);
  auto children = CloneBatch(sys, parent, 4, lazy);
  EXPECT_TRUE(children.ok()) << children.status().ToString();
  if (lazy) {
    for (DomId c : *children) {
      EXPECT_GT(sys.clone_engine().PendingStreamPages(c), 0u)
          << "lazy child " << c << " came fully mapped";
      EXPECT_TRUE(sys.clone_engine().FinishStreaming(c).ok());
      EXPECT_FALSE(sys.clone_engine().IsStreaming(c));
    }
    sys.Settle();
  }
  EXPECT_TRUE(sys.hypervisor()
                  .WriteGuestPage(children->front(), FirstDataGfn(), 0, kStamp, sizeof(kStamp))
                  .ok());
  ExpectFrameConsistency(sys);
  EXPECT_EQ(CheckHypervisorInvariants(sys.hypervisor()), "");
  return StateDigest(sys);
}

// --- Digest equivalence: lazy ends where eager starts. ---

TEST(LazyCloneEquivalence, FullyStreamedLazyMatchesEagerAtEveryWorkerCount) {
  const std::uint64_t eager = RunWorkload(1, /*lazy=*/false);
  const std::uint64_t lazy = RunWorkload(1, /*lazy=*/true);
  EXPECT_EQ(lazy, eager) << "a fully-streamed lazy clone diverged from the eager machine";
  for (unsigned workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(RunWorkload(workers, /*lazy=*/false), eager);
    EXPECT_EQ(RunWorkload(workers, /*lazy=*/true), eager);
  }
}

// --- Exact counter accounting. ---

TEST(LazyCloneCounters, StreamedPagesAndDemandFaultsMoveByExactlyTheirPages) {
  NepheleSystem sys(LazySystem(1, /*manual_stream=*/true));
  MetricsRegistry& m = sys.metrics();
  const DomId parent = BootStampedParent(sys);

  const std::uint64_t base_streamed = m.CounterValue("clone/streamed_pages");
  const std::uint64_t base_faults = m.CounterValue("clone/lazy/demand_faults");
  const std::uint64_t base_deferred = m.CounterValue("clone/lazy/deferred_pages");

  auto children = CloneBatch(sys, parent, 1, /*lazy=*/true);
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  const DomId child = children->front();

  const std::size_t deferred = sys.clone_engine().PendingStreamPages(child);
  ASSERT_GT(deferred, 3u);
  EXPECT_EQ(m.CounterValue("clone/lazy/clones"), 1u);
  EXPECT_EQ(m.CounterValue("clone/lazy/deferred_pages") - base_deferred, deferred);
  EXPECT_EQ(m.GaugeValue("clone/lazy_pending_pages"), static_cast<std::int64_t>(deferred));

  // Demand-fault exactly 3 distinct deferred pages.
  const Domain* cd = sys.hypervisor().FindDomain(child);
  ASSERT_NE(cd, nullptr);
  std::vector<Gfn> holes;
  for (Gfn gfn = 0; gfn < cd->p2m.size() && holes.size() < 3; ++gfn) {
    if (cd->p2m[gfn].mfn == kInvalidMfn) {
      holes.push_back(gfn);
    }
  }
  ASSERT_EQ(holes.size(), 3u);
  for (Gfn gfn : holes) {
    ASSERT_TRUE(sys.hypervisor().TouchGuestPages(child, gfn, 1).ok());
  }
  sys.Settle();
  EXPECT_EQ(m.CounterValue("clone/lazy/demand_faults") - base_faults, 3u);
  EXPECT_EQ(sys.clone_engine().PendingStreamPages(child), deferred - 3);

  // One pump batch streams exactly min(batch, pending) pages.
  const std::size_t batch = sys.config().lazy_clone.stream_batch_pages;
  const std::size_t pumped = sys.clone_engine().StreamPump(1);
  EXPECT_EQ(pumped, std::min(batch, deferred - 3));
  EXPECT_EQ(m.CounterValue("clone/streamed_pages") - base_streamed, pumped);

  // Finishing drains the rest; every deferred page is now accounted to
  // exactly one of the two paths.
  ASSERT_TRUE(sys.clone_engine().FinishStreaming(child).ok());
  EXPECT_FALSE(sys.clone_engine().IsStreaming(child));
  EXPECT_EQ(sys.clone_engine().PendingStreamPages(child), 0u);
  EXPECT_EQ(m.CounterValue("clone/streamed_pages") - base_streamed, deferred - 3);
  EXPECT_EQ(m.CounterValue("clone/lazy/demand_faults") - base_faults, 3u);
  EXPECT_EQ(m.GaugeValue("clone/lazy_pending_pages"), 0);
  EXPECT_GT(m.CounterValue("clone/lazy/stream_batches"), 0u);
  EXPECT_EQ(CheckHypervisorInvariants(sys.hypervisor()), "");
}

// --- Teardown of half-streamed children conserves frames. ---

TEST(LazyCloneTeardown, HalfStreamedChildLeaksNothingInEitherDestructionOrder) {
  NepheleSystem sys(LazySystem(1, /*manual_stream=*/true));
  const std::size_t boot_free = sys.hypervisor().FreePoolFrames();

  // Order 1: the child dies mid-stream (it abandons its own stream).
  {
    const DomId parent = BootStampedParent(sys);
    const std::size_t parent_free = sys.hypervisor().FreePoolFrames();
    auto children = CloneBatch(sys, parent, 1, /*lazy=*/true);
    ASSERT_TRUE(children.ok());
    const DomId child = children->front();
    ASSERT_GT(sys.clone_engine().StreamPump(1), 0u);
    ASSERT_TRUE(sys.clone_engine().IsStreaming(child)) << "child streamed out too fast";
    ASSERT_TRUE(sys.toolstack().DestroyDomain(child).ok());
    sys.Settle();
    EXPECT_FALSE(sys.clone_engine().IsStreaming(child));
    EXPECT_EQ(sys.hypervisor().FreePoolFrames(), parent_free);
    ExpectFrameConsistency(sys);

    // Order 2: the parent dies mid-stream — the destroy hook must finish
    // the child's stream (it has no other source for its snapshot).
    auto second = CloneBatch(sys, parent, 1, /*lazy=*/true);
    ASSERT_TRUE(second.ok());
    const DomId orphan = second->front();
    ASSERT_TRUE(sys.clone_engine().IsStreaming(orphan));
    ASSERT_TRUE(sys.toolstack().DestroyDomain(parent).ok());
    sys.Settle();
    EXPECT_FALSE(sys.clone_engine().IsStreaming(orphan));
    EXPECT_EQ(sys.clone_engine().PendingStreamPages(orphan), 0u);
    EXPECT_EQ(CheckHypervisorInvariants(sys.hypervisor()), "");
    // The orphan still reads its full clone-time snapshot.
    std::uint8_t got[sizeof(kStamp)] = {};
    ASSERT_TRUE(
        sys.hypervisor().ReadGuestPage(orphan, FirstDataGfn(), 0, got, sizeof(got)).ok());
    EXPECT_EQ(std::memcmp(got, kStamp, sizeof(kStamp)), 0);

    ASSERT_TRUE(sys.toolstack().DestroyDomain(orphan).ok());
    sys.Settle();
  }
  EXPECT_EQ(sys.hypervisor().FreePoolFrames(), boot_free);
  ExpectFrameConsistency(sys);
}

// --- The oracle sees corrupted partially-mapped state. ---

TEST(LazyCloneInvariants, OracleFlagsWritableHoleAndLedgerDrift) {
  NepheleSystem sys(LazySystem(1, /*manual_stream=*/true));
  const DomId parent = BootStampedParent(sys);
  auto children = CloneBatch(sys, parent, 1, /*lazy=*/true);
  ASSERT_TRUE(children.ok());
  Domain* cd = sys.hypervisor().FindDomain(children->front());
  ASSERT_NE(cd, nullptr);
  ASSERT_EQ(CheckP2mInvariants(sys.hypervisor()), "");

  Gfn hole = kInvalidGfn;
  for (Gfn gfn = 0; gfn < cd->p2m.size(); ++gfn) {
    if (cd->p2m[gfn].mfn == kInvalidMfn) {
      hole = gfn;
      break;
    }
  }
  ASSERT_NE(hole, kInvalidGfn);

  // A writable not-present pte would let the guest scribble into a page the
  // stream has not delivered.
  cd->p2m[hole].writable = true;
  EXPECT_NE(CheckP2mInvariants(sys.hypervisor()).find("not-present but writable"),
            std::string::npos);
  cd->p2m[hole].writable = false;

  // A ledger that disagrees with the p2m is a stream the engine lost track
  // of (the latent pre-lazy invariant assumed every entry resolves).
  const std::size_t ledger = cd->lazy_deferred_pages;
  cd->lazy_deferred_pages = 0;
  EXPECT_NE(CheckP2mInvariants(sys.hypervisor()).find("ledger"), std::string::npos);
  cd->lazy_deferred_pages = ledger;
  EXPECT_EQ(CheckP2mInvariants(sys.hypervisor()), "");
}

// --- Scheduler: streams finish before a child parks. ---

TEST(LazySchedDispatch, ReleaseFinishesTheStreamBeforeParking) {
  NepheleSystem sys(LazySystem(1, /*manual_stream=*/true));
  CloneScheduler sched(sys);
  const DomId parent = BootStampedParent(sys);

  // A direct lazy clone, handed to the scheduler as if it had served a
  // request.
  auto children = CloneBatch(sys, parent, 1, /*lazy=*/true);
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  const DomId child = children->front();
  ASSERT_TRUE(sys.clone_engine().IsStreaming(child)) << "lazy clone came fully mapped";
  const std::size_t pending = sys.clone_engine().PendingStreamPages(child);
  const std::uint64_t streamed_before = sys.metrics().CounterValue("clone/streamed_pages");

  auto outcome = sched.Release(child);
  sys.Settle();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->parked);
  EXPECT_EQ(sched.WarmPoolSize(parent), 1u);
  EXPECT_FALSE(sys.clone_engine().IsStreaming(child))
      << "a parked child must never be half-mapped";
  EXPECT_EQ(sys.metrics().CounterValue("clone/streamed_pages") - streamed_before, pending);
  EXPECT_EQ(CheckHypervisorInvariants(sys.hypervisor()), "");

  sched.DrainAll();
  sys.Settle();
}

// --- The stream_stall alarm. ---

TEST(LazyStreamAlarm, StallRaisesWhileBacklogPersistsAndClearsWhenDrained) {
  NepheleSystem sys(LazySystem(1, /*manual_stream=*/true));
  TsdbConfig tcfg;
  tcfg.tick_interval = SimDuration::Millis(1);
  TsdbCollector tsdb(sys.metrics(), sys.loop(), tcfg);
  AlarmEngine alarms(tsdb, sys.metrics());
  for (AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }

  const DomId parent = BootStampedParent(sys);
  tsdb.Tick();  // a healthy sample: pending == 0
  EXPECT_EQ(alarms.StateOf("stream_stall"), AlarmState::kClear);

  auto children = CloneBatch(sys, parent, 1, /*lazy=*/true);
  ASSERT_TRUE(children.ok());
  ASSERT_GT(sys.clone_engine().PendingStreamPages(children->front()), 0u);

  // Manual mode with no pump: the backlog never drains. kMin over the
  // 4-tick window stays 0 until the healthy boot sample ages out, then two
  // consecutive over-ticks raise.
  for (int i = 0; i < 4; ++i) {
    tsdb.Tick();
    EXPECT_EQ(alarms.StateOf("stream_stall"), AlarmState::kClear)
        << "tick " << i << ": the healthy sample is still in the window";
  }
  tsdb.Tick();
  EXPECT_EQ(alarms.StateOf("stream_stall"), AlarmState::kRaised);
  EXPECT_EQ(sys.metrics().GaugeValue("alarm/stream_stall/state"), 1);

  // Draining the stream touches 0; kMin over the window follows immediately
  // and two under-ticks clear.
  ASSERT_TRUE(sys.clone_engine().FinishStreaming(children->front()).ok());
  tsdb.Tick();
  EXPECT_EQ(alarms.StateOf("stream_stall"), AlarmState::kRaised);
  tsdb.Tick();
  EXPECT_EQ(alarms.StateOf("stream_stall"), AlarmState::kClear);
}

}  // namespace
}  // namespace nephele
