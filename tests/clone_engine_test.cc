#include <gtest/gtest.h>

#include "src/core/system.h"

namespace nephele {
namespace {

// Exercises the CLONEOP hypercall + xencloned second stage through the fully
// wired system (the clone path needs both).
class CloneEngineTest : public ::testing::Test {
 protected:
  CloneEngineTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 256 * 1024;  // 1 GiB pool
    return cfg;
  }

  DomId BootCloneable(std::uint32_t max_clones = 32, bool with_vif = true) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = max_clones;
    cfg.with_vif = with_vif;
    auto dom = system_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok());
    return *dom;
  }

  Mfn StartInfoMfn(DomId dom) {
    const Domain* d = system_.hypervisor().FindDomain(dom);
    return d->p2m[d->start_info_gfn].mfn;
  }

  // Clone and run the second stage to completion.
  std::vector<DomId> CloneAndSettle(DomId parent, unsigned n = 1) {
    auto children = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), n});
    EXPECT_TRUE(children.ok()) << children.status().ToString();
    system_.Settle();
    return children.ok() ? *children : std::vector<DomId>{};
  }

  NepheleSystem system_;
};

TEST_F(CloneEngineTest, RequiresGlobalEnable) {
  // xencloned enabled cloning globally when the host started; Dom0 turns it
  // off again.
  ASSERT_TRUE(system_.clone_engine().EnableGlobal(kDom0, false).ok());
  DomId dom = BootCloneable(/*max_clones=*/2);
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom), 1});
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CloneEngineTest, RequiresPerDomainEnable) {
  DomId dom = BootCloneable(/*max_clones=*/0);
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom), 1});
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(CloneEngineTest, EnforcesMaxClones) {
  DomId dom = BootCloneable(/*max_clones=*/2);
  EXPECT_EQ(CloneAndSettle(dom).size(), 1u);
  EXPECT_EQ(CloneAndSettle(dom).size(), 1u);
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom), 1});
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// A hostile clone count must not wrap the max_clones sum: with one clone
// made, 1 + 0xFFFFFFFF is 0 in 32 bits. The call is a hard limit error, not
// the ring's transient backpressure.
TEST_F(CloneEngineTest, HugeCloneCountDoesNotWrapMaxClones) {
  DomId dom = BootCloneable(/*max_clones=*/2);
  EXPECT_EQ(CloneAndSettle(dom).size(), 1u);
  Counter& backpressure = system_.metrics().GetCounter("clone/ring/backpressure");
  const std::uint64_t backpressure_before = backpressure.value();
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom), 0xFFFFFFFFu});
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted) << r.status().ToString();
  EXPECT_EQ(backpressure.value(), backpressure_before);
  EXPECT_EQ(system_.hypervisor().FindDomain(dom)->clones_created, 1u);
}

TEST_F(CloneEngineTest, OnlySelfOrDom0MayClone) {
  DomId a = BootCloneable();
  DomId b = BootCloneable();
  auto r = system_.clone_engine().Clone({b, a, StartInfoMfn(a), 1});
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  // Dom0-triggered cloning (the fuzzing path) is allowed.
  auto ok = system_.clone_engine().Clone({kDom0, a, StartInfoMfn(a), 1});
  EXPECT_TRUE(ok.ok());
  system_.Settle();
}

TEST_F(CloneEngineTest, StartInfoMfnValidated) {
  DomId dom = BootCloneable();
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom) + 1, 1});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CloneEngineTest, ChildInheritsMemoryLayoutAndFamily) {
  DomId parent = BootCloneable();
  auto children = CloneAndSettle(parent);
  ASSERT_EQ(children.size(), 1u);
  const Domain* p = system_.hypervisor().FindDomain(parent);
  const Domain* c = system_.hypervisor().FindDomain(children[0]);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tot_pages(), p->tot_pages());
  EXPECT_EQ(c->parent, parent);
  EXPECT_EQ(c->family_root, parent);
  EXPECT_EQ(p->children, children);
  EXPECT_TRUE(system_.hypervisor().IsDescendantOf(children[0], parent));
  EXPECT_EQ(c->start_info_gfn, p->start_info_gfn);
}

TEST_F(CloneEngineTest, RaxIsZeroForParentOneForChild) {
  DomId parent = BootCloneable();
  auto children = CloneAndSettle(parent);
  EXPECT_EQ(system_.hypervisor().FindDomain(parent)->vcpus[0].rax, 0u);
  EXPECT_EQ(system_.hypervisor().FindDomain(children[0])->vcpus[0].rax, 1u);
}

TEST_F(CloneEngineTest, VcpuAffinityReplicated) {
  DomId parent = BootCloneable();
  system_.hypervisor().FindDomain(parent)->vcpus[0].affinity = 3;
  auto children = CloneAndSettle(parent);
  EXPECT_EQ(system_.hypervisor().FindDomain(children[0])->vcpus[0].affinity, 3);
}

TEST_F(CloneEngineTest, DataPagesAreSharedCow) {
  DomId parent = BootCloneable();
  const Domain* p = system_.hypervisor().FindDomain(parent);
  GuestMemoryLayout layout = ComputeGuestLayout(*system_.toolstack().FindConfig(parent));
  Gfn heap_gfn = static_cast<Gfn>(layout.heap_first_gfn);
  Mfn parent_mfn_before = p->p2m[heap_gfn].mfn;

  auto children = CloneAndSettle(parent);
  const Domain* c = system_.hypervisor().FindDomain(children[0]);
  // Same machine frame, owned by dom_cow, read-only on both sides.
  EXPECT_EQ(c->p2m[heap_gfn].mfn, parent_mfn_before);
  EXPECT_EQ(system_.hypervisor().frames().OwnerOf(parent_mfn_before), kDomCow);
  EXPECT_FALSE(system_.hypervisor().FindDomain(parent)->p2m[heap_gfn].writable);
  EXPECT_FALSE(c->p2m[heap_gfn].writable);
}

TEST_F(CloneEngineTest, PrivatePagesAreDuplicated) {
  DomId parent = BootCloneable();
  const Domain* p = system_.hypervisor().FindDomain(parent);
  auto children = CloneAndSettle(parent);
  const Domain* c = system_.hypervisor().FindDomain(children[0]);
  // start_info, console ring, xenstore ring, vif rings and buffers.
  EXPECT_NE(c->p2m[c->start_info_gfn].mfn, p->p2m[p->start_info_gfn].mfn);
  EXPECT_NE(c->p2m[c->console_ring_gfn].mfn, p->p2m[p->console_ring_gfn].mfn);
  GuestDevices* gd = system_.toolstack().FindDevices(parent);
  Gfn rx = gd->net->rx_buffer_gfn();
  EXPECT_NE(c->p2m[rx].mfn, p->p2m[rx].mfn);
  EXPECT_TRUE(c->p2m[c->start_info_gfn].writable);
}

TEST_F(CloneEngineTest, CowIsolationAfterClone) {
  DomId parent = BootCloneable();
  GuestMemoryLayout layout = ComputeGuestLayout(*system_.toolstack().FindConfig(parent));
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  const char before[] = "original";
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(parent, gfn, 0, before, sizeof(before)).ok());

  auto children = CloneAndSettle(parent);
  DomId child = children[0];

  // Contents equal right after the clone.
  char buf[16] = {};
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(child, gfn, 0, buf, sizeof(before)).ok());
  EXPECT_STREQ(buf, "original");

  // Child writes; parent must not see it (DESIGN.md invariant 2).
  const char child_data[] = "childmod";
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(child, gfn, 0, child_data, sizeof(child_data)).ok());
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(parent, gfn, 0, buf, sizeof(before)).ok());
  EXPECT_STREQ(buf, "original");
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(child, gfn, 0, buf, sizeof(child_data)).ok());
  EXPECT_STREQ(buf, "childmod");
  EXPECT_EQ(system_.hypervisor().FindDomain(child)->cow_faults, 1u);
}

TEST_F(CloneEngineTest, LastSharerReclaimsOwnershipWithoutCopy) {
  DomId parent = BootCloneable();
  GuestMemoryLayout layout = ComputeGuestLayout(*system_.toolstack().FindConfig(parent));
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  auto children = CloneAndSettle(parent);
  Mfn shared_mfn = system_.hypervisor().FindDomain(parent)->p2m[gfn].mfn;

  // Child COWs its copy; the shared frame drops to refcount 1.
  char b = 1;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(children[0], gfn, 0, &b, 1).ok());
  // Parent's next write transfers ownership in place — no new frame.
  std::size_t free_before = system_.hypervisor().FreePoolFrames();
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(parent, gfn, 0, &b, 1).ok());
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
  EXPECT_EQ(system_.hypervisor().frames().OwnerOf(shared_mfn), parent);
}

TEST_F(CloneEngineTest, ParentPausedUntilSecondStageCompletes) {
  DomId parent = BootCloneable();
  auto children = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(children.ok());
  // Before the event loop runs xencloned, the parent must be blocked.
  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_TRUE(p->blocked_in_clone);
  EXPECT_TRUE(p->IsPaused());
  system_.Settle();
  EXPECT_FALSE(p->blocked_in_clone);
  EXPECT_EQ(p->state, DomainState::kRunning);
  EXPECT_EQ(system_.hypervisor().FindDomain(children->front())->state, DomainState::kRunning);
}

namespace {

// Records every CloneObserver callback it sees, in delivery order.
class RecordingObserver : public CloneObserver {
 public:
  void OnCloneStart(DomId parent, unsigned num_clones) override {
    starts.push_back({parent, num_clones});
  }
  void OnCloneComplete(DomId parent, DomId child) override {
    completions.push_back({parent, child});
  }
  void OnCloneAborted(DomId /*parent*/, DomId child) override { aborted.push_back(child); }
  void OnResume(DomId dom, bool is_child) override { resumed.push_back({dom, is_child}); }
  void OnCowFault(DomId dom, Gfn /*gfn*/, bool /*copied*/) override { cow_faults.push_back(dom); }
  void OnDestroy(DomId dom) override {
    destroyed.push_back(dom);
    if (hv != nullptr && hv->FindDomain(dom) == nullptr) {
      ++destroyed_unfindable;
    }
  }

  // Set to check that a destroyed domain can still be looked up in OnDestroy.
  const Hypervisor* hv = nullptr;
  std::vector<std::pair<DomId, unsigned>> starts;
  std::vector<std::pair<DomId, DomId>> completions;
  std::vector<DomId> aborted;
  std::vector<std::pair<DomId, bool>> resumed;
  std::vector<DomId> cow_faults;
  std::vector<DomId> destroyed;
  int destroyed_unfindable = 0;
};

}  // namespace

TEST_F(CloneEngineTest, ObserverSeesResumeForBothSides) {
  DomId parent = BootCloneable();
  RecordingObserver obs;
  system_.clone_engine().AddObserver(&obs);
  auto children = CloneAndSettle(parent);
  system_.clone_engine().RemoveObserver(&obs);
  ASSERT_EQ(obs.resumed.size(), 2u);
  EXPECT_EQ(obs.resumed[0], std::make_pair(children[0], true));
  EXPECT_EQ(obs.resumed[1], std::make_pair(parent, false));
}

TEST_F(CloneEngineTest, ObserverSeesStartCompleteAndCowFault) {
  DomId parent = BootCloneable();
  RecordingObserver obs;
  system_.clone_engine().AddObserver(&obs);
  auto children = CloneAndSettle(parent);
  ASSERT_EQ(obs.starts.size(), 1u);
  EXPECT_EQ(obs.starts[0], std::make_pair(parent, 1u));
  ASSERT_EQ(obs.completions.size(), 1u);
  EXPECT_EQ(obs.completions[0], std::make_pair(parent, children[0]));
  // A write to a shared page surfaces as OnCowFault.
  const Domain* p = system_.hypervisor().FindDomain(parent);
  Gfn gfn = 0;
  for (; gfn < p->p2m.size(); ++gfn) {
    if (system_.hypervisor().frames().IsShared(p->p2m[gfn].mfn) &&
        p->p2m[gfn].role != PageRole::kImageText) {
      break;
    }
  }
  ASSERT_LT(gfn, p->p2m.size());
  std::uint8_t b = 1;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(parent, gfn, 0, &b, 1).ok());
  system_.clone_engine().RemoveObserver(&obs);
  ASSERT_EQ(obs.cow_faults.size(), 1u);
  EXPECT_EQ(obs.cow_faults[0], parent);
}

TEST_F(CloneEngineTest, RemovedObserverStopsReceivingEvents) {
  DomId parent = BootCloneable(/*max_clones=*/8);
  RecordingObserver obs;
  system_.clone_engine().AddObserver(&obs);
  CloneAndSettle(parent);
  ASSERT_EQ(obs.starts.size(), 1u);
  system_.clone_engine().RemoveObserver(&obs);
  CloneAndSettle(parent);
  EXPECT_EQ(obs.starts.size(), 1u);
  EXPECT_EQ(obs.resumed.size(), 2u);
}

// Every destroyed domain reaches observers exactly once through OnDestroy,
// whoever destroys it, while it can still be looked up: a stage-1 rollback
// child, a stage-2 abort and a toolstack destroy. Dom0's refused destroy
// reaches nobody.
TEST_F(CloneEngineTest, ObserverSeesEveryDestroyOnce) {
  DomId parent = BootCloneable();
  RecordingObserver obs;
  obs.hv = &system_.hypervisor();
  system_.clone_engine().AddObserver(&obs);

  // The child exists when its grant-table copy faults, so it is rolled back.
  ASSERT_TRUE(system_.fault_injector().Arm("clone/stage1/grants", FaultSpec::NthHit(1)).ok());
  EXPECT_FALSE(system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1}).ok());
  ASSERT_EQ(obs.aborted.size(), 1u);
  const DomId rolled_back = obs.aborted[0];
  EXPECT_EQ(obs.destroyed, std::vector<DomId>{rolled_back});

  ASSERT_TRUE(system_.fault_injector().Arm("xencloned/stage2", FaultSpec::NthHit(1)).ok());
  auto aborted = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(aborted.ok()) << aborted.status().ToString();
  system_.Settle();
  system_.fault_injector().DisarmAll();
  const DomId stage2_abort = (*aborted)[0];
  EXPECT_EQ(system_.hypervisor().FindDomain(stage2_abort), nullptr);

  const std::vector<DomId> children = CloneAndSettle(parent);
  ASSERT_EQ(children.size(), 1u);
  ASSERT_TRUE(system_.toolstack().DestroyDomain(children[0]).ok());
  EXPECT_EQ(system_.toolstack().DestroyDomain(kDom0).code(), StatusCode::kPermissionDenied);
  system_.clone_engine().RemoveObserver(&obs);

  EXPECT_EQ(obs.destroyed, (std::vector<DomId>{rolled_back, stage2_abort, children[0]}));
  EXPECT_EQ(obs.destroyed_unfindable, 0);
}

TEST_F(CloneEngineTest, MultiCloneBatch) {
  DomId parent = BootCloneable(/*max_clones=*/8);
  auto children = CloneAndSettle(parent, 3);
  EXPECT_EQ(children.size(), 3u);
  for (DomId c : children) {
    EXPECT_NE(system_.hypervisor().FindDomain(c), nullptr);
    EXPECT_TRUE(system_.hypervisor().SameFamily(parent, c));
  }
  // Pairwise distinct.
  EXPECT_NE(children[0], children[1]);
  EXPECT_NE(children[1], children[2]);
}

TEST_F(CloneEngineTest, CloneOfCloneExtendsFamily) {
  DomId root = BootCloneable();
  auto first = CloneAndSettle(root);
  DomId child = first[0];
  auto second = system_.clone_engine().Clone({child, child, StartInfoMfn(child), 1});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  system_.Settle();
  DomId grandchild = second->front();
  EXPECT_TRUE(system_.hypervisor().IsDescendantOf(grandchild, root));
  EXPECT_EQ(system_.hypervisor().FindDomain(grandchild)->family_root, root);
}

TEST_F(CloneEngineTest, CloneSavesMemory) {
  DomId parent = BootCloneable(/*max_clones=*/16);
  std::size_t free_before = system_.hypervisor().FreePoolFrames();
  auto children = CloneAndSettle(parent);
  ASSERT_EQ(children.size(), 1u);
  std::size_t clone_cost_pages = free_before - system_.hypervisor().FreePoolFrames();
  // Fig. 5 anchor: ~1.6 MiB per clone vs the 4 MiB boot (RX ring ~1 MiB).
  double clone_mb = static_cast<double>(clone_cost_pages) * kPageSize / (1 << 20);
  EXPECT_GT(clone_mb, 1.0);
  EXPECT_LT(clone_mb, 2.0);
}

TEST_F(CloneEngineTest, FirstStageTakesAboutOneMillisecond) {
  DomId parent = BootCloneable();
  SimTime before = system_.Now();
  auto children = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(children.ok());
  double stage1_ms = (system_.Now() - before).ToMillis();
  EXPECT_GT(stage1_ms, 0.3);
  EXPECT_LT(stage1_ms, 2.5);  // Sec. 6.1: "takes only 1 ms"
  system_.Settle();
}

TEST_F(CloneEngineTest, SecondCloneIsCheaperSharing) {
  DomId parent = BootCloneable();
  const MetricsRegistry& m = system_.metrics();
  (void)CloneAndSettle(parent);
  const std::uint64_t first_after_first = m.CounterValue("clone/stage1/pages_shared_first");
  const std::uint64_t again_after_first = m.CounterValue("clone/stage1/pages_shared_again");
  (void)CloneAndSettle(parent);
  // First clone transferred pages to dom_cow; the second only bumps
  // refcounts (Sec. 6.2 first-vs-second clone gap).
  EXPECT_GT(first_after_first, 0u);
  EXPECT_EQ(m.CounterValue("clone/stage1/pages_shared_first"), first_after_first);
  EXPECT_GT(m.CounterValue("clone/stage1/pages_shared_again"), again_after_first);
}

TEST_F(CloneEngineTest, CloneCowUnsharesExplicitly) {
  DomId parent = BootCloneable();
  auto children = CloneAndSettle(parent);
  DomId child = children[0];
  const Domain* c = system_.hypervisor().FindDomain(child);
  Mfn shared_text = c->p2m[0].mfn;  // gfn 0 is image text
  ASSERT_TRUE(system_.clone_engine().CloneCow(kDom0, child, 0, 4).ok());
  EXPECT_NE(system_.hypervisor().FindDomain(child)->p2m[0].mfn, shared_text);
  EXPECT_TRUE(system_.hypervisor().FindDomain(child)->p2m[0].writable);
  EXPECT_EQ(system_.metrics().CounterValue("clone/cow/explicit_pages"), 4u);
}

TEST_F(CloneEngineTest, CloneCowPermissionChecked) {
  DomId a = BootCloneable();
  DomId b = BootCloneable();
  EXPECT_EQ(system_.clone_engine().CloneCow(a, b, 0, 1).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(CloneEngineTest, CloneResetRestoresDirtyPages) {
  DomId parent = BootCloneable();
  GuestMemoryLayout layout = ComputeGuestLayout(*system_.toolstack().FindConfig(parent));
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  const char original[] = "pristine";
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(parent, gfn, 0, original, sizeof(original)).ok());
  auto children = CloneAndSettle(parent);
  DomId child = children[0];

  const char scribble[] = "scribble";
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(child, gfn, 0, scribble, sizeof(scribble)).ok());
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(child, gfn + 1, 0, scribble, sizeof(scribble)).ok());

  auto restored = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 2u);
  char buf[16] = {};
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(child, gfn, 0, buf, sizeof(original)).ok());
  EXPECT_STREQ(buf, "pristine");
  // The page is shared again; a further reset restores nothing.
  auto again = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST_F(CloneEngineTest, CloneResetOnlyForClones) {
  DomId dom = BootCloneable();
  EXPECT_EQ(system_.clone_engine().CloneReset(kDom0, dom).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CloneEngineTest, GrantTableInheritedByChild) {
  DomId parent = BootCloneable();
  std::size_t parent_grants =
      system_.hypervisor().FindDomain(parent)->grants.active_entries();
  ASSERT_GT(parent_grants, 0u);  // vif rings/buffers are granted
  auto children = CloneAndSettle(parent);
  EXPECT_EQ(system_.hypervisor().FindDomain(children[0])->grants.active_entries(),
            parent_grants);
}

TEST_F(CloneEngineTest, NotificationRingBackpressure) {
  DomId parent = BootCloneable(/*max_clones=*/4096);
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent),
                                        static_cast<unsigned>(
                                            system_.clone_engine().notification_ring().capacity()) +
                                            1});
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

// Property (DESIGN.md invariant 2/3): transparency across guest memory
// sizes — clone contents equal the parent's at clone time, rax values are
// correct, and writes after the clone never leak across.
class CloneTransparency : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CloneTransparency, MemorySizeSweep) {
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 512 * 1024;
  NepheleSystem system(scfg);
  DomainConfig cfg;
  cfg.name = "p";
  cfg.memory_mb = GetParam();
  cfg.max_clones = 1;
  auto parent = system.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  GuestMemoryLayout layout = ComputeGuestLayout(cfg);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn + layout.heap_pages / 2);
  std::uint32_t tag = static_cast<std::uint32_t>(0xC0FFEE00 + GetParam());
  ASSERT_TRUE(system.hypervisor().WriteGuestPage(*parent, gfn, 8, &tag, sizeof(tag)).ok());

  const Domain* p = system.hypervisor().FindDomain(*parent);
  auto children = system.clone_engine().Clone({*parent, *parent,
                                              p->p2m[p->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok());
  system.Settle();
  DomId child = children->front();

  std::uint32_t out = 0;
  ASSERT_TRUE(system.hypervisor().ReadGuestPage(child, gfn, 8, &out, sizeof(out)).ok());
  EXPECT_EQ(out, tag);
  EXPECT_EQ(system.hypervisor().FindDomain(child)->vcpus[0].rax, 1u);
  EXPECT_EQ(system.hypervisor().FindDomain(*parent)->vcpus[0].rax, 0u);

  std::uint32_t other = ~tag;
  ASSERT_TRUE(system.hypervisor().WriteGuestPage(child, gfn, 8, &other, sizeof(other)).ok());
  ASSERT_TRUE(system.hypervisor().ReadGuestPage(*parent, gfn, 8, &out, sizeof(out)).ok());
  EXPECT_EQ(out, tag);
}

INSTANTIATE_TEST_SUITE_P(MemorySizes, CloneTransparency,
                         ::testing::Values(4, 8, 16, 64, 128));

}  // namespace
}  // namespace nephele
