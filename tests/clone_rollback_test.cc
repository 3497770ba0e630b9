// Error-path unit tests for the transactional clone engine: one test per
// stage, asserting the exact injected Status code surfaces to the caller,
// the precise metric counters (clone/rolled_back, fault/injected,
// clone/clones_total), and that the rollback left no trace — pool frames at
// the pre-clone value, parent resumable and re-clonable. Faults inside
// every child's plan, eager and lazy, are checked against a per-page walk,
// and a clone destroyed before its second stage completed must count as an
// abort in every window, for direct clones and scheduler grants alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/core/idc.h"
#include "src/core/system.h"
#include "src/sched/scheduler.h"
#include "src/xenstore/path.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

class CloneRollbackTest : public ::testing::Test {
 protected:
  CloneRollbackTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;
    return cfg;
  }

  DomId BootParent(bool with_devices = false) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = 32;
    cfg.with_vif = true;
    cfg.with_p9fs = with_devices;
    cfg.with_vbd = with_devices;
    cfg.vbd_size_mb = 1;
    auto dom = system_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok()) << dom.status().ToString();
    system_.Settle();
    return *dom;
  }

  Mfn StartInfoMfn(DomId dom) {
    const Domain* d = system_.hypervisor().FindDomain(dom);
    return d->p2m[d->start_info_gfn].mfn;
  }

  std::uint64_t RolledBack() {
    return system_.metrics().GetCounter("clone/rolled_back").value();
  }
  std::uint64_t Injected() { return system_.metrics().GetCounter("fault/injected").value(); }
  std::uint64_t ClonesTotal() {
    return system_.metrics().GetCounter("clone/clones_total").value();
  }

  // Arms `point` to fail the first stage-1 attempt, checks the full rollback
  // contract, then proves an un-faulted clone still works.
  void ExpectStage1Rollback(const std::string& point) {
    SCOPED_TRACE(point);
    DomId parent = BootParent();
    const Domain* p = system_.hypervisor().FindDomain(parent);
    const std::size_t free_before = system_.hypervisor().FreePoolFrames();
    const std::size_t domains_before = system_.hypervisor().DomainIds().size();
    const bool data_writable_before = p->p2m[310].writable;

    ASSERT_TRUE(system_.fault_injector()
                    .Arm(point, FaultSpec::NthHit(1, StatusCode::kAborted, "boom"))
                    .ok());
    auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
    system_.Settle();

    // The injected code surfaces verbatim.
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status().ToString();

    // Exact counters: one injection, one rollback, zero clones.
    EXPECT_EQ(Injected(), 1u);
    EXPECT_EQ(RolledBack(), 1u);
    EXPECT_EQ(ClonesTotal(), 0u);

    // No trace: frames returned, no extra domain, parent untouched and
    // running.
    EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
    EXPECT_EQ(system_.hypervisor().DomainIds().size(), domains_before);
    EXPECT_EQ(p->state, DomainState::kRunning);
    EXPECT_FALSE(p->blocked_in_clone);
    EXPECT_TRUE(p->children.empty());
    EXPECT_EQ(p->clones_created, 0u);
    EXPECT_EQ(p->p2m[310].writable, data_writable_before)
        << "parent pte not restored by rollback";

    // The engine stays usable: disarm and clone for real.
    system_.fault_injector().DisarmAll();
    auto ok = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
    system_.Settle();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ClonesTotal(), 1u);
    EXPECT_EQ(RolledBack(), 1u);  // unchanged by the successful clone
  }

  // Arms `point` to fail the second stage, checks the abort contract.
  void ExpectStage2Abort(const std::string& point, bool with_devices) {
    SCOPED_TRACE(point);
    DomId parent = BootParent(with_devices);
    const std::size_t free_before = system_.hypervisor().FreePoolFrames();
    const std::size_t domains_before = system_.hypervisor().DomainIds().size();
    const std::size_t entries_before = system_.xenstore().NumEntries();
    const std::size_t backend_before = system_.devices().Dom0BackendBytes();
    const std::size_t dom0_free_before = system_.toolstack().Dom0FreeBytes();

    ASSERT_TRUE(system_.fault_injector()
                    .Arm(point, FaultSpec::NthHit(1, StatusCode::kUnavailable, "boom"))
                    .ok());
    auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
    ASSERT_TRUE(r.ok()) << "stage 1 must succeed; the fault is in stage 2";
    DomId child = (*r)[0];
    system_.Settle();

    // The child was destroyed and its Xenstore subtree removed; Dom0 holds
    // exactly what it held before the clone.
    EXPECT_EQ(system_.hypervisor().FindDomain(child), nullptr);
    EXPECT_FALSE(system_.xenstore().DomainKnown(child));
    EXPECT_FALSE(system_.xenstore().Read(XsDomainPath(child) + "/name").ok());
    EXPECT_EQ(system_.xenstore().NumEntries(), entries_before);
    EXPECT_EQ(system_.devices().Dom0BackendBytes(), backend_before);
    EXPECT_EQ(system_.toolstack().Dom0FreeBytes(), dom0_free_before);
    EXPECT_EQ(system_.toolstack().FindConfig(child), nullptr);

    // Pool back to the pre-clone value (child private pages, page tables and
    // the shared references all returned or released).
    EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
    EXPECT_EQ(system_.hypervisor().DomainIds().size(), domains_before);

    // The parent is resumable: unblocked, running, and re-clonable.
    const Domain* p = system_.hypervisor().FindDomain(parent);
    EXPECT_FALSE(p->blocked_in_clone);
    EXPECT_EQ(p->state, DomainState::kRunning);
    EXPECT_TRUE(p->children.empty());

    EXPECT_GE(Injected(), 1u);
    EXPECT_EQ(RolledBack(), 1u);
    EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_aborted").value(), 1u);
    EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_completed").value(), 0u);

    system_.fault_injector().DisarmAll();
    auto ok = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
    system_.Settle();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(system_.hypervisor().FindDomain(parent)->children.size(), 1u);
  }

  NepheleSystem system_;
};

// --- Stage-1 rollback, one test per stage. ---

TEST_F(CloneRollbackTest, CreateDomainStage) {
  ExpectStage1Rollback("clone/stage1/create_domain");
}

TEST_F(CloneRollbackTest, MemoryStage) { ExpectStage1Rollback("clone/stage1/memory"); }

TEST_F(CloneRollbackTest, ShareStage) { ExpectStage1Rollback("clone/stage1/share"); }

TEST_F(CloneRollbackTest, PageTableStage) {
  ExpectStage1Rollback("clone/stage1/page_tables");
}

TEST_F(CloneRollbackTest, GrantStage) { ExpectStage1Rollback("clone/stage1/grants"); }

TEST_F(CloneRollbackTest, EvtchnStage) { ExpectStage1Rollback("clone/stage1/evtchns"); }

// Frame-pool exhaustion inside CloneMemory's private-page allocation.
TEST_F(CloneRollbackTest, FrameAllocDuringCloneMemory) {
  DomId parent = BootParent();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();
  // Skip the boot-time allocations: arm for the first alloc of the clone.
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("hypervisor/frame_alloc", FaultSpec::NthHit(1))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  system_.Settle();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RolledBack(), 1u);
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
  EXPECT_FALSE(system_.hypervisor().FindDomain(parent)->blocked_in_clone);
}

// A fault on the second child of a batch unwinds the first child too: the
// batch is all-or-nothing.
TEST_F(CloneRollbackTest, BatchIsAllOrNothing) {
  DomId parent = BootParent();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();
  const std::size_t domains_before = system_.hypervisor().DomainIds().size();
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("clone/stage1/create_domain",
                       FaultSpec::NthHit(2, StatusCode::kAborted, "second child"))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 2});
  system_.Settle();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_EQ(RolledBack(), 1u) << "one rollback event per failed batch";
  EXPECT_EQ(ClonesTotal(), 0u);
  EXPECT_EQ(system_.hypervisor().DomainIds().size(), domains_before);
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_TRUE(p->children.empty());
  EXPECT_EQ(p->clones_created, 0u);
  EXPECT_FALSE(p->blocked_in_clone);
  EXPECT_EQ(p->state, DomainState::kRunning);
}

// A failed batch that staged children before failing leaves a never-cloned
// parent exactly as it was: no frame entered sharing, so the next clean
// clone shares every non-private page for the first time.
TEST(CloneFirstBatchRollbackTest, ParentFramesStayPrivate) {
  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    SystemConfig sys_cfg;
    sys_cfg.hypervisor.pool_frames = 64 * 1024;
    sys_cfg.clone_worker_threads = workers;
    NepheleSystem sys(sys_cfg);
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = 32;
    cfg.with_vif = true;
    auto dom = sys.toolstack().CreateDomain(cfg);
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();
    sys.Settle();
    const DomId parent = *dom;
    const Domain& p = *sys.hypervisor().FindDomain(parent);
    const Mfn start_info = p.p2m[p.start_info_gfn].mfn;
    const FrameTable& frames = sys.hypervisor().frames();
    const std::size_t free_before = sys.hypervisor().FreePoolFrames();

    // Children 0 and 1 are planned and staged; child 2's create fails.
    ASSERT_TRUE(sys.fault_injector()
                    .Arm("clone/stage1/create_domain",
                         FaultSpec::NthHit(3, StatusCode::kAborted, "third child"))
                    .ok());
    auto failed = sys.clone_engine().Clone({parent, parent, start_info, 3});
    sys.Settle();
    sys.fault_injector().DisarmAll();
    ASSERT_FALSE(failed.ok());

    // Every parent frame: not shared, owned by the parent, refcount 1.
    std::size_t left_changed = 0;
    std::size_t non_private = 0;
    for (const P2mEntry& pe : p.p2m) {
      const FrameInfo& fi = frames.info(pe.mfn);
      if (fi.shared || fi.owner != parent || fi.refcount != 1) {
        ++left_changed;
      }
      if (!IsPrivateRole(pe.role)) {
        ++non_private;
      }
    }
    EXPECT_EQ(left_changed, 0u);
    EXPECT_EQ(frames.shared_frames(), 0u);
    EXPECT_EQ(frames.frames_saved_by_sharing(), 0u);
    EXPECT_EQ(sys.hypervisor().FreePoolFrames(), free_before);
    ExpectFrameConsistency(sys);

    MetricsRegistry& m = sys.metrics();
    const std::uint64_t first_before = m.CounterValue("clone/stage1/pages_shared_first");
    const std::uint64_t idc_before = m.CounterValue("clone/stage1/pages_idc_shared");
    auto ok = sys.clone_engine().Clone({parent, parent, start_info, 1});
    sys.Settle();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(m.CounterValue("clone/stage1/pages_shared_first") - first_before +
                  m.CounterValue("clone/stage1/pages_idc_shared") - idc_before,
              non_private);
    EXPECT_EQ(frames.shared_frames(), non_private);
  }
}

// --- Stage-2 aborts. ---

TEST_F(CloneRollbackTest, XenclonedStage2Fault) {
  ExpectStage2Abort("xencloned/stage2", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, XsCloneFault) {
  ExpectStage2Abort("xenstore/xs_clone", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, ConsoleCloneFault) {
  ExpectStage2Abort("devices/console_clone", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, NetCloneFault) {
  ExpectStage2Abort("devices/net_clone", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, P9CloneFault) {
  ExpectStage2Abort("devices/p9_clone", /*with_devices=*/true);
}

TEST_F(CloneRollbackTest, VbdCloneFault) {
  ExpectStage2Abort("devices/vbd_clone", /*with_devices=*/true);
}

// A stage-2 abort of one child of a batch must not wedge the others or the
// parent: the aborted child retires its outstanding slot like a completion.
TEST_F(CloneRollbackTest, PartialBatchStage2Abort) {
  DomId parent = BootParent();
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("xencloned/stage2", FaultSpec::NthHit(2))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 2});
  ASSERT_TRUE(r.ok());
  system_.Settle();

  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_EQ(p->state, DomainState::kRunning) << "parent must resume despite one abort";
  EXPECT_FALSE(p->blocked_in_clone);
  ASSERT_EQ(p->children.size(), 1u) << "one child survives, one was aborted";
  // Exactly one of the two stage-1 children made it through stage 2; the
  // survivor is the one the parent still lists.
  const bool first_alive = system_.hypervisor().FindDomain((*r)[0]) != nullptr;
  const bool second_alive = system_.hypervisor().FindDomain((*r)[1]) != nullptr;
  EXPECT_NE(first_alive, second_alive);
  EXPECT_EQ(p->children[0], first_alive ? (*r)[0] : (*r)[1]);
  EXPECT_EQ(RolledBack(), 1u);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_completed").value(), 1u);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_aborted").value(), 1u);
}

// --- CloneReset under fault. ---

TEST_F(CloneRollbackTest, CloneResetFaultLeavesDirtyListConsistent) {
  DomId parent = BootParent();
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(r.ok());
  system_.Settle();
  DomId child = (*r)[0];

  // Dirty two pages on the child.
  std::uint8_t b = 0x5a;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 310, 0, &b, 1).ok());
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 311, 0, &b, 1).ok());
  const Domain* c = system_.hypervisor().FindDomain(child);
  ASSERT_EQ(c->dirty_since_clone.size(), 2u);

  ASSERT_TRUE(system_.fault_injector()
                  .Arm("clone/reset", FaultSpec::NthHit(1, StatusCode::kUnavailable, "boom"))
                  .ok());
  auto reset = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_FALSE(reset.ok());
  EXPECT_EQ(reset.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(c->dirty_since_clone.size(), 2u) << "failed reset must not lose dirty entries";

  // Disarmed retry restores both pages.
  system_.fault_injector().DisarmAll();
  auto retry = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 2u);
  EXPECT_TRUE(c->dirty_since_clone.empty());
}

// Regression: a CloneReset issued after a fault-aborted clone of the same
// parent. The abort path (Dom0 teardown + the destroy whose hook retires
// the pending slot) must leave frame
// refcounts, the engine's pending-slot table and the rollback/abort counters
// in a state where the surviving child resets cleanly and the parent can
// clone again.
TEST_F(CloneRollbackTest, CloneResetAfterAbortedCloneStaysConsistent) {
  DomId parent = BootParent();
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("xencloned/stage2", FaultSpec::NthHit(1))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 2});
  ASSERT_TRUE(r.ok());
  system_.Settle();
  system_.fault_injector().DisarmAll();

  // First child aborted mid-stage-2, second survived.
  ASSERT_EQ(system_.hypervisor().FindDomain((*r)[0]), nullptr);
  const DomId child = (*r)[1];
  ASSERT_NE(system_.hypervisor().FindDomain(child), nullptr);
  EXPECT_EQ(RolledBack(), 1u);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_aborted").value(), 1u);
  ExpectFrameConsistency(system_);

  // Dirty the survivor, then reset it. The abort must not have corrupted the
  // shared-frame refcounts the reset re-shares against.
  std::uint8_t b = 0x77;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 310, 0, &b, 1).ok());
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 311, 0, &b, 1).ok());
  auto reset = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(reset.ok()) << reset.status().ToString();
  EXPECT_EQ(*reset, 2u);
  EXPECT_TRUE(system_.hypervisor().FindDomain(child)->dirty_since_clone.empty());
  EXPECT_EQ(system_.metrics().GetCounter("clone/reset/count").value(), 1u);
  ExpectFrameConsistency(system_);

  // The aborted child's pending slot was retired: the parent is unblocked
  // and a fresh batch goes through end to end.
  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_FALSE(p->blocked_in_clone);
  EXPECT_EQ(p->state, DomainState::kRunning);
  auto again = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  system_.Settle();
  EXPECT_NE(system_.hypervisor().FindDomain((*again)[0]), nullptr);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_completed").value(), 2u);
  EXPECT_EQ(RolledBack(), 1u) << "the clean batch must not add rollbacks";
  ExpectFrameConsistency(system_);
}

// --- Faults inside each child's plan. ---
//
// The first child walks every page but adds its page counts once per walk;
// children after it replay its decisions in bulk: one fault poke per share
// run, deferred pages skipped. A fault inside any of these plans must still
// leave the fault-point hits and page counters of a per-page walk, which
// these tests recompute from the parent's p2m.

constexpr const char* kSharePoint = "clone/stage1/share";
constexpr const char* kAllocPoint = "hypervisor/frame_alloc";
constexpr unsigned kBatchChildren = 3;

struct PlanCounts {
  std::uint64_t share_hits = 0;
  std::uint64_t alloc_hits = 0;
  std::uint64_t shared_first = 0;
  std::uint64_t shared_again = 0;
  std::uint64_t private_copied = 0;
  std::uint64_t idc_shared = 0;
  std::uint64_t deferred = 0;

  bool operator==(const PlanCounts&) const = default;
  PlanCounts operator-(const PlanCounts& o) const {
    return {share_hits - o.share_hits,         alloc_hits - o.alloc_hits,
            shared_first - o.shared_first,     shared_again - o.shared_again,
            private_copied - o.private_copied, idc_shared - o.idc_shared,
            deferred - o.deferred};
  }
};

void PrintTo(const PlanCounts& c, std::ostream* os) {
  *os << "{share_hits=" << c.share_hits << " alloc_hits=" << c.alloc_hits
      << " shared_first=" << c.shared_first << " shared_again=" << c.shared_again
      << " private_copied=" << c.private_copied << " idc_shared=" << c.idc_shared
      << " deferred=" << c.deferred << "}";
}

// A parent with every kind of page a plan classifies: private pages (special
// pages, vif rings and buffers), an IDC region, data pages shared by one
// earlier clone, two data pages dirtied since (so the batch shares them
// first), and — in a lazy batch — an explicit hot hint with everything else
// deferred (max_hot_pages = 0 seeds nothing beyond the hint).
class LaterChildPlanRig {
 public:
  explicit LaterChildPlanRig(bool lazy) : lazy_(lazy), sys_(Config()) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = 32;
    cfg.with_vif = true;
    auto dom = sys_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok()) << dom.status().ToString();
    sys_.Settle();
    parent_ = *dom;
    EXPECT_TRUE(IdcRegion::Create(sys_.hypervisor(), parent_, 4).ok());
    EXPECT_TRUE(sys_.clone_engine().Clone({parent_, parent_, StartInfoMfn(), 1}).ok());
    sys_.Settle();
    const std::uint8_t b = 0x3c;
    for (Gfn gfn : {Gfn{310}, Gfn{311}}) {
      EXPECT_TRUE(sys_.hypervisor().WriteGuestPage(parent_, gfn, 0, &b, 1).ok());
    }
  }

  // Hits of `point` in one child's plan.
  std::uint64_t HitsPerChild(const std::string& point) {
    const PlanCounts all = PerPageWalk("", 0);
    return (point == kSharePoint ? all.share_hits : all.alloc_hits) / kBatchChildren;
  }

  // An unfaulted batch must match the walk too.
  void ExpectCleanBatchMatchesWalk() {
    SCOPED_TRACE(lazy_ ? "lazy clean batch" : "eager clean batch");
    const PlanCounts expected = PerPageWalk("", 0);
    const PlanCounts before = Measure();
    auto r = Clone();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Measure() - before, expected);
  }

  // Plans a kBatchChildren batch with the nth hit of `point` failing and
  // checks hits, page counters and the pool against the per-page walk.
  void ExpectFaultMatchesWalk(const char* point, std::uint64_t nth) {
    SCOPED_TRACE(std::string(lazy_ ? "lazy " : "eager ") + point + " hit " +
                 std::to_string(nth));
    const PlanCounts expected = PerPageWalk(point, nth);
    const PlanCounts before = Measure();
    const std::size_t free_before = sys_.hypervisor().FreePoolFrames();
    ASSERT_TRUE(sys_.fault_injector()
                    .Arm(point, FaultSpec::NthHit(nth, StatusCode::kAborted, "later child"))
                    .ok());
    auto r = Clone();
    sys_.fault_injector().DisarmAll();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kAborted);
    EXPECT_EQ(Measure() - before, expected);
    EXPECT_EQ(sys_.hypervisor().FreePoolFrames(), free_before);
    ExpectFrameConsistency(sys_);
  }

 private:
  static inline const std::vector<Gfn> kHot = {310, 400, 500};

  static SystemConfig Config() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;
    cfg.lazy_clone.max_hot_pages = 0;
    return cfg;
  }

  Mfn StartInfoMfn() {
    const Domain* d = sys_.hypervisor().FindDomain(parent_);
    return d->p2m[d->start_info_gfn].mfn;
  }

  Result<std::vector<DomId>> Clone() {
    return sys_.clone_engine().Clone(
        {parent_, parent_, StartInfoMfn(), kBatchChildren, lazy_, kHot});
  }

  bool Hot(Gfn gfn) const { return std::find(kHot.begin(), kHot.end(), gfn) != kHot.end(); }

  PlanCounts Measure() {
    MetricsRegistry& m = sys_.metrics();
    return {sys_.fault_injector().GetPoint(kSharePoint)->hits(),
            sys_.fault_injector().GetPoint(kAllocPoint)->hits(),
            m.GetCounter("clone/stage1/pages_shared_first").value(),
            m.GetCounter("clone/stage1/pages_shared_again").value(),
            m.GetCounter("clone/stage1/pages_private_copied").value(),
            m.GetCounter("clone/stage1/pages_idc_shared").value(),
            m.GetCounter("clone/lazy/deferred_pages").value()};
  }

  // The batch planned one page at a time, child after child: each private
  // page takes a frame, each deferred page only counts, each other page
  // pokes the share point (a first share only in the first child, for a
  // frame not yet shared), then the page-table and p2m frames. Stops at the
  // nth hit of `point` (nth == 0: never).
  PlanCounts PerPageWalk(const std::string& point, std::uint64_t nth) {
    const Domain& parent = *sys_.hypervisor().FindDomain(parent_);
    const FrameTable& frames = sys_.hypervisor().frames();
    const std::size_t pages = parent.p2m.size();
    const std::size_t table_frames =
        PageTablePagesFor(pages) + std::max<std::size_t>(1, (pages * 4 + kPageSize - 1) / kPageSize);
    PlanCounts c;
    auto hit = [&](const char* name, std::uint64_t& hits) { return ++hits == nth && point == name; };
    for (unsigned k = 0; k < kBatchChildren; ++k) {
      for (Gfn gfn = 0; gfn < pages; ++gfn) {
        const P2mEntry& pe = parent.p2m[gfn];
        if (IsPrivateRole(pe.role)) {
          if (hit(kAllocPoint, c.alloc_hits)) {
            return c;
          }
          ++c.private_copied;
        } else if (lazy_ && pe.role == PageRole::kData && !Hot(gfn)) {
          ++c.deferred;
        } else {
          if (hit(kSharePoint, c.share_hits)) {
            return c;
          }
          if (pe.role == PageRole::kIdcShared) {
            ++c.idc_shared;
          } else if (k == 0 && !frames.IsShared(pe.mfn)) {
            ++c.shared_first;
          } else {
            ++c.shared_again;
          }
        }
      }
      for (std::size_t i = 0; i < table_frames; ++i) {
        if (hit(kAllocPoint, c.alloc_hits)) {
          return c;
        }
      }
    }
    return c;
  }

  bool lazy_;
  NepheleSystem sys_;
  DomId parent_ = kDomInvalid;
};

// First, second, middle and last hit of `point` inside every child's plan,
// each on a fresh rig: the first child's per-page walk, which adds its page
// counts once per walk, and the second and third child's replay of it.
void ExpectLaterChildFaultsMatchWalk(bool lazy) {
  for (const char* point : {kSharePoint, kAllocPoint}) {
    LaterChildPlanRig probe(lazy);
    const std::uint64_t per_child = probe.HitsPerChild(point);
    ASSERT_GE(per_child, 4u);
    probe.ExpectCleanBatchMatchesWalk();
    for (std::uint64_t child : {0u, 1u, 2u}) {
      const std::uint64_t base = child * per_child;
      for (std::uint64_t nth : {base + 1, base + 2, base + (per_child + 1) / 2, base + per_child}) {
        LaterChildPlanRig(lazy).ExpectFaultMatchesWalk(point, nth);
      }
    }
  }
}

TEST(CloneLaterChildFaultTest, EagerBatchMatchesPerPageWalk) {
  ExpectLaterChildFaultsMatchWalk(/*lazy=*/false);
}

TEST(CloneLaterChildFaultTest, LazyBatchMatchesPerPageWalk) {
  ExpectLaterChildFaultsMatchWalk(/*lazy=*/true);
}

// --- Toolstack boot unwinding (the destroy path's teardown body). ---

TEST_F(CloneRollbackTest, FailedBootLeavesNoTrace) {
  // Fail the nth frame allocation for several n, walking the fault through
  // the boot sequence (domain creation, physmap population, special pages,
  // device rings). Every failed boot must unwind completely, Dom0 included;
  // boots that survive are torn down and still must return to the starting
  // state.
  DomainConfig cfg;
  cfg.memory_mb = 4;
  cfg.max_clones = 4;
  cfg.with_vif = true;
  cfg.with_p9fs = true;
  cfg.with_vbd = true;
  unsigned boots_failed = 0;
  for (unsigned nth : {1u, 10u, 100u, 300u, 600u}) {
    SCOPED_TRACE(nth);
    const std::size_t free_before = system_.hypervisor().FreePoolFrames();
    const std::size_t domains_before = system_.hypervisor().DomainIds().size();
    const std::size_t entries_before = system_.xenstore().NumEntries();
    const std::size_t backend_before = system_.devices().Dom0BackendBytes();
    const std::size_t dom0_free_before = system_.toolstack().Dom0FreeBytes();
    ASSERT_TRUE(system_.fault_injector()
                    .Arm("hypervisor/frame_alloc", FaultSpec::NthHit(nth))
                    .ok());
    cfg.name = "doomed" + std::to_string(nth);
    auto dom = system_.toolstack().CreateDomain(cfg);
    system_.Settle();
    system_.fault_injector().DisarmAll();
    if (dom.ok()) {
      ASSERT_TRUE(system_.toolstack().DestroyDomain(*dom).ok());
      system_.Settle();
    } else {
      ++boots_failed;
    }
    EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
    EXPECT_EQ(system_.hypervisor().DomainIds().size(), domains_before);
    EXPECT_EQ(system_.xenstore().NumEntries(), entries_before);
    EXPECT_EQ(system_.devices().Dom0BackendBytes(), backend_before);
    EXPECT_EQ(system_.toolstack().Dom0FreeBytes(), dom0_free_before);
  }
  EXPECT_GE(boots_failed, 1u) << "no nth-hit value made the boot fail";

  // And boot still works afterwards.
  cfg.name = "phoenix";
  auto ok = system_.toolstack().CreateDomain(cfg);
  system_.Settle();
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// --- Destroy before the second stage completed. ---
//
// A clone can be destroyed while its notification still sits in the ring
// (kQueued) or, for a vif parent, while its vif waits for the udev event
// (kUdevWait). Toolstack::DestroyDomain takes it in either window and the
// destroy counts as an abort: the parent runs again, Dom0 holds exactly
// what it held before the clone, xencloned never sets the dead child up,
// and a scheduler request the child was to serve fails once, kAborted.

enum class Stage2Window { kQueued, kUdevWait };

struct DestroyCase {
  Stage2Window window;
  bool with_vif;
  bool via_scheduler;
};

std::ostream& operator<<(std::ostream& os, const DestroyCase& c) {
  return os << (c.window == Stage2Window::kQueued ? "Queued" : "UdevWait")
            << (c.with_vif ? "Vif" : "NoVif") << (c.via_scheduler ? "Acquire" : "Clone");
}

class DestroyBeforeStage2Test : public ::testing::TestWithParam<DestroyCase> {};

TEST_P(DestroyBeforeStage2Test, CountsAsAnAbortAndLeavesNoTrace) {
  const DestroyCase& c = GetParam();
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 64 * 1024;
  cfg.sched.max_batch = 1;  // an Acquire dispatches at its own instant
  NepheleSystem sys(cfg);
  CloneScheduler sched(sys);

  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 8;
  dcfg.with_vif = c.with_vif;
  auto parent = sys.toolstack().CreateDomain(dcfg);
  ASSERT_TRUE(parent.ok()) << parent.status().ToString();
  sys.Settle();

  const std::size_t free_before = sys.hypervisor().FreePoolFrames();
  const std::size_t entries_before = sys.xenstore().NumEntries();
  const std::size_t backend_before = sys.devices().Dom0BackendBytes();
  const std::size_t dom0_free_before = sys.toolstack().Dom0FreeBytes();
  const std::uint64_t rolled_back_before = sys.metrics().CounterValue("clone/rolled_back");
  const std::uint64_t completed_before =
      sys.metrics().CounterValue("xencloned/clones_completed");

  std::vector<DomId> children;
  int grants = 0;
  Status grant_status = Status::Ok();
  if (c.via_scheduler) {
    sched.SetCloneExecutor([&](const CloneRequest& req) {
      auto r = sys.clone_engine().Clone(req);
      if (r.ok()) {
        children = *r;
      }
      return r;
    });
    ASSERT_TRUE(sched
                    .Acquire({kDom0, *parent, kInvalidMfn, 1},
                             [&](Result<DomId> r) {
                               ++grants;
                               grant_status = r.status();
                             })
                    .ok());
    sys.loop().RunUntil(sys.Now());  // the dispatch: stage 1 only
  } else {
    const Domain* p = sys.hypervisor().FindDomain(*parent);
    auto r = sys.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, 1});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    children = *r;
  }
  ASSERT_EQ(children.size(), 1u);
  const DomId child = children.front();
  const DeviceId child_vif{child, DeviceType::kVif, 0};
  if (c.window == Stage2Window::kUdevWait) {
    // VIRQ_CLONED lands 2 us after stage 1 and runs the second stage, which
    // leaves the vif's udev event 150 us out.
    sys.loop().RunUntil(sys.Now() + SimDuration::Micros(2));
    ASSERT_NE(sys.toolstack().FindConfig(child), nullptr) << "second stage did not run";
    ASSERT_NE(sys.devices().netback().FindVif(child_vif), nullptr);
  } else {
    ASSERT_EQ(sys.toolstack().FindConfig(child), nullptr) << "second stage already ran";
  }
  ASSERT_TRUE(sys.hypervisor().FindDomain(*parent)->blocked_in_clone);

  ASSERT_TRUE(sys.toolstack().DestroyDomain(child).ok());
  sys.Settle();

  const Domain* p = sys.hypervisor().FindDomain(*parent);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->state, DomainState::kRunning);
  EXPECT_FALSE(p->blocked_in_clone);
  EXPECT_TRUE(p->children.empty());

  EXPECT_EQ(sys.hypervisor().FindDomain(child), nullptr);
  EXPECT_EQ(sys.toolstack().FindConfig(child), nullptr);
  EXPECT_FALSE(sys.xenstore().DomainKnown(child));
  EXPECT_FALSE(sys.xenstore().Exists(XsDomainPath(child)));
  EXPECT_EQ(sys.devices().netback().FindVif(child_vif), nullptr);
  EXPECT_EQ(sys.xenstore().NumEntries(), entries_before);
  EXPECT_EQ(sys.devices().Dom0BackendBytes(), backend_before);
  EXPECT_EQ(sys.toolstack().Dom0FreeBytes(), dom0_free_before);
  EXPECT_EQ(sys.hypervisor().FreePoolFrames(), free_before);
  EXPECT_EQ(sys.metrics().CounterValue("clone/rolled_back"), rolled_back_before + 1);
  if (c.window == Stage2Window::kQueued) {
    EXPECT_EQ(sys.metrics().CounterValue("xencloned/clones_completed"), completed_before)
        << "xencloned set up a destroyed child";
  }
  if (c.via_scheduler) {
    EXPECT_EQ(grants, 1);
    EXPECT_EQ(grant_status.code(), StatusCode::kAborted) << grant_status.ToString();
  }
  ExpectFrameConsistency(sys);

  // The parent clones again end to end.
  const Domain* pp = sys.hypervisor().FindDomain(*parent);
  auto again = sys.clone_engine().Clone({*parent, *parent, pp->p2m[pp->start_info_gfn].mfn, 1});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  sys.Settle();
  EXPECT_FALSE(sys.hypervisor().FindDomain(*parent)->blocked_in_clone);
  EXPECT_NE(sys.toolstack().FindConfig(again->front()), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, DestroyBeforeStage2Test,
    ::testing::Values(DestroyCase{Stage2Window::kQueued, false, false},
                      DestroyCase{Stage2Window::kQueued, false, true},
                      DestroyCase{Stage2Window::kQueued, true, false},
                      DestroyCase{Stage2Window::kQueued, true, true},
                      DestroyCase{Stage2Window::kUdevWait, true, false},
                      DestroyCase{Stage2Window::kUdevWait, true, true}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace nephele
