#include <gtest/gtest.h>

#include <string>

#include "src/hypervisor/hypervisor.h"
#include "src/hypervisor/invariants.h"
#include "src/obs/trace.h"

namespace nephele {
namespace {

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest()
      : hv_(loop_, DefaultCostModel(), SmallConfig(), {metrics_, trace_, faults_}) {}

  static HypervisorConfig SmallConfig() {
    HypervisorConfig cfg;
    cfg.pool_frames = 4096;
    return cfg;
  }

  EventLoop loop_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{loop_};
  FaultInjector faults_{metrics_};
  Hypervisor hv_;
};

TEST_F(HypervisorTest, Dom0ExistsAtBoot) {
  const Domain* dom0 = hv_.FindDomain(kDom0);
  ASSERT_NE(dom0, nullptr);
  EXPECT_EQ(dom0->name, "Domain-0");
  EXPECT_EQ(dom0->state, DomainState::kRunning);
}

TEST_F(HypervisorTest, CreateDomainAssignsIds) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(hv_.FindDomain(*b)->vcpus.size(), 2u);
  EXPECT_EQ(hv_.FindDomain(*a)->family_root, *a);
}

TEST_F(HypervisorTest, CreateDomainRejectsZeroVcpus) {
  EXPECT_EQ(hv_.CreateDomain("x", 0).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HypervisorTest, PopulatePhysmapAllocatesFrames) {
  auto dom = hv_.CreateDomain("a", 1);
  std::size_t free_before = hv_.FreePoolFrames();
  auto gfn = hv_.PopulatePhysmap(*dom, 10, PageRole::kData);
  ASSERT_TRUE(gfn.ok());
  EXPECT_EQ(*gfn, 0u);
  EXPECT_EQ(hv_.FreePoolFrames(), free_before - 10);
  EXPECT_EQ(hv_.FindDomain(*dom)->tot_pages(), 10u);
}

TEST_F(HypervisorTest, PopulatePhysmapRollsBackOnExhaustion) {
  auto dom = hv_.CreateDomain("a", 1);
  std::size_t free_before = hv_.FreePoolFrames();
  auto r = hv_.PopulatePhysmap(*dom, free_before + 1, PageRole::kData);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hv_.FreePoolFrames(), free_before);
  EXPECT_EQ(hv_.FindDomain(*dom)->tot_pages(), 0u);
}

TEST_F(HypervisorTest, SpecialPagesRecorded) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.AllocSpecialPage(*dom, PageRole::kStartInfo).ok());
  ASSERT_TRUE(hv_.AllocSpecialPage(*dom, PageRole::kConsoleRing).ok());
  ASSERT_TRUE(hv_.AllocSpecialPage(*dom, PageRole::kXenstoreRing).ok());
  const Domain* d = hv_.FindDomain(*dom);
  EXPECT_EQ(d->start_info_gfn, 0u);
  EXPECT_EQ(d->console_ring_gfn, 1u);
  EXPECT_EQ(d->xenstore_ring_gfn, 2u);
}

TEST_F(HypervisorTest, GuestReadWriteRoundTrip) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 2, PageRole::kData).ok());
  const char msg[] = "hello";
  ASSERT_TRUE(hv_.WriteGuestPage(*dom, 1, 64, msg, sizeof(msg)).ok());
  char out[sizeof(msg)] = {};
  ASSERT_TRUE(hv_.ReadGuestPage(*dom, 1, 64, out, sizeof(msg)).ok());
  EXPECT_STREQ(out, "hello");
}

TEST_F(HypervisorTest, WriteOutsidePageRejected) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 1, PageRole::kData).ok());
  char b = 0;
  EXPECT_EQ(hv_.WriteGuestPage(*dom, 0, kPageSize, &b, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv_.WriteGuestPage(*dom, 5, 0, &b, 1).code(), StatusCode::kOutOfRange);
}

TEST_F(HypervisorTest, WriteToTextPageDenied) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 1, PageRole::kImageText).ok());
  char b = 0;
  EXPECT_EQ(hv_.WriteGuestPage(*dom, 0, 0, &b, 1).code(), StatusCode::kPermissionDenied);
}

TEST_F(HypervisorTest, BuildPageTablesChargesPrivateFrames) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 1024, PageRole::kData).ok());
  ASSERT_TRUE(hv_.BuildPageTables(*dom).ok());
  const Domain* d = hv_.FindDomain(*dom);
  EXPECT_EQ(d->page_table_frames.size(), PageTablePagesFor(1024));
  EXPECT_EQ(d->p2m_frames.size(), 1u);
  // Rebuild releases the old tables first.
  std::size_t free_mid = hv_.FreePoolFrames();
  ASSERT_TRUE(hv_.BuildPageTables(*dom).ok());
  EXPECT_EQ(hv_.FreePoolFrames(), free_mid);
}

// An mfn past the end of the pool is a frames violation, found before the
// frames layer reads the frame table at it.
TEST_F(HypervisorTest, FrameOracleNamesAnMfnOutsideThePool) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 64, PageRole::kData).ok());
  ASSERT_TRUE(hv_.BuildPageTables(*dom).ok());
  ASSERT_EQ(CheckFrameInvariants(hv_), "");
  Domain* d = hv_.FindDomain(*dom);
  const Mfn kept = d->page_table_frames[0];
  const Mfn outside = static_cast<Mfn>(hv_.frames().total_frames());
  d->page_table_frames[0] = outside;
  const std::string violation = CheckFrameInvariants(hv_);
  EXPECT_NE(violation.find("mfn " + std::to_string(outside) + " outside the pool"),
            std::string::npos)
      << violation;
  d->page_table_frames[0] = kept;
  EXPECT_EQ(CheckFrameInvariants(hv_), "");
}

TEST_F(HypervisorTest, DestroyReleasesEverything) {
  std::size_t free_before = hv_.FreePoolFrames();
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 100, PageRole::kData).ok());
  ASSERT_TRUE(hv_.BuildPageTables(*dom).ok());
  ASSERT_TRUE(hv_.DestroyDomain(*dom).ok());
  EXPECT_EQ(hv_.FreePoolFrames(), free_before);
  EXPECT_EQ(hv_.FindDomain(*dom), nullptr);
}

TEST_F(HypervisorTest, Dom0CannotBeDestroyed) {
  EXPECT_EQ(hv_.DestroyDomain(kDom0).code(), StatusCode::kPermissionDenied);
}

TEST_F(HypervisorTest, PauseUnpause) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.UnpauseDomain(*dom).ok());
  EXPECT_EQ(hv_.FindDomain(*dom)->state, DomainState::kRunning);
  ASSERT_TRUE(hv_.PauseDomain(*dom).ok());
  EXPECT_TRUE(hv_.FindDomain(*dom)->IsPaused());
}

TEST_F(HypervisorTest, TouchMarksPagesAndCharges) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 8, PageRole::kData).ok());
  SimTime before = loop_.Now();
  ASSERT_TRUE(hv_.TouchGuestPages(*dom, 0, 8).ok());
  EXPECT_GT(loop_.Now(), before);
  EXPECT_EQ(hv_.TouchGuestPages(*dom, 5, 10).code(), StatusCode::kOutOfRange);
}

TEST_F(HypervisorTest, GrantAndMap) {
  auto granter = hv_.CreateDomain("g", 1);
  auto mapper = hv_.CreateDomain("m", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*granter, 1, PageRole::kData).ok());
  auto ref = hv_.GrantAccess(*granter, *mapper, 0, false);
  ASSERT_TRUE(ref.ok());
  auto gfn = hv_.MapGrant(*mapper, *granter, *ref);
  ASSERT_TRUE(gfn.ok());
  EXPECT_EQ(*gfn, 0u);
  // A third domain may not map it.
  auto other = hv_.CreateDomain("o", 1);
  EXPECT_EQ(hv_.MapGrant(*other, *granter, *ref).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(hv_.UnmapGrant(*mapper, *granter, *ref).ok());
  EXPECT_TRUE(hv_.EndGrantAccess(*granter, *ref).ok());
}

TEST_F(HypervisorTest, GrantCannotEndWhileMapped) {
  auto granter = hv_.CreateDomain("g", 1);
  auto mapper = hv_.CreateDomain("m", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*granter, 1, PageRole::kData).ok());
  auto ref = hv_.GrantAccess(*granter, *mapper, 0, true);
  ASSERT_TRUE(hv_.MapGrant(*mapper, *granter, *ref).ok());
  EXPECT_EQ(hv_.EndGrantAccess(*granter, *ref).code(), StatusCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, EvtchnInterdomainDelivery) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  ASSERT_TRUE(hv_.UnpauseDomain(*a).ok());
  ASSERT_TRUE(hv_.UnpauseDomain(*b).ok());
  auto port_b = hv_.EvtchnAllocUnbound(*b, *a);
  ASSERT_TRUE(port_b.ok());
  auto port_a = hv_.EvtchnBindInterdomain(*a, *b, *port_b);
  ASSERT_TRUE(port_a.ok());
  EvtchnPort fired = kInvalidPort;
  hv_.SetEvtchnHandler(*b, [&](EvtchnPort p) { fired = p; });
  ASSERT_TRUE(hv_.EvtchnSend(*a, *port_a).ok());
  loop_.Run();
  EXPECT_EQ(fired, *port_b);
}

TEST_F(HypervisorTest, EvtchnDeliveryDeferredWhilePaused) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  ASSERT_TRUE(hv_.UnpauseDomain(*a).ok());
  auto port_b = hv_.EvtchnAllocUnbound(*b, *a);
  auto port_a = hv_.EvtchnBindInterdomain(*a, *b, *port_b);
  bool fired = false;
  hv_.SetEvtchnHandler(*b, [&](EvtchnPort) { fired = true; });
  ASSERT_TRUE(hv_.EvtchnSend(*a, *port_a).ok());
  loop_.Run();
  EXPECT_FALSE(fired);  // b is paused; pending bit stays set
  EXPECT_TRUE(hv_.FindDomain(*b)->evtchns.entry(*port_b).pending);
}

TEST_F(HypervisorTest, BindInterdomainChecksReservation) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  auto c = hv_.CreateDomain("c", 1);
  auto port_b = hv_.EvtchnAllocUnbound(*b, *a);  // reserved for a
  EXPECT_EQ(hv_.EvtchnBindInterdomain(*c, *b, *port_b).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(HypervisorTest, VirqRoundTrip) {
  auto port = hv_.EvtchnBindVirq(kDom0, Virq::kCloned);
  ASSERT_TRUE(port.ok());
  EvtchnPort fired = kInvalidPort;
  hv_.SetEvtchnHandler(kDom0, [&](EvtchnPort p) { fired = p; });
  ASSERT_TRUE(hv_.RaiseVirq(kDom0, Virq::kCloned).ok());
  loop_.Run();
  EXPECT_EQ(fired, *port);
}

TEST_F(HypervisorTest, VirqWithoutBindingFails) {
  EXPECT_EQ(hv_.RaiseVirq(kDom0, Virq::kCloned).code(), StatusCode::kNotFound);
}

TEST_F(HypervisorTest, FamilyRelations) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  auto c = hv_.CreateDomain("c", 1);
  Domain* db = hv_.FindDomain(*b);
  Domain* dc = hv_.FindDomain(*c);
  db->parent = *a;
  db->family_root = *a;
  hv_.FindDomain(*a)->children.push_back(*b);
  dc->parent = *b;
  dc->family_root = *a;
  db->children.push_back(*c);
  EXPECT_TRUE(hv_.IsDescendantOf(*b, *a));
  EXPECT_TRUE(hv_.IsDescendantOf(*c, *a));
  EXPECT_FALSE(hv_.IsDescendantOf(*a, *b));
  EXPECT_TRUE(hv_.SameFamily(*a, *c));
  EXPECT_FALSE(hv_.SameFamily(*a, kDom0));
}

TEST_F(HypervisorTest, CloneConfigViaDomctl) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.SetCloneConfig(*dom, true, 16).ok());
  EXPECT_TRUE(hv_.FindDomain(*dom)->cloning_enabled);
  EXPECT_EQ(hv_.FindDomain(*dom)->max_clones, 16u);
  EXPECT_EQ(hv_.SetCloneConfig(999, true, 1).code(), StatusCode::kNotFound);
}

TEST_F(HypervisorTest, HypercallsAreCounted) {
  std::uint64_t before = metrics_.CounterValue("hypervisor/hypercalls");
  hv_.ChargeHypercall();
  hv_.ChargeHypercall();
  EXPECT_EQ(metrics_.CounterValue("hypervisor/hypercalls"), before + 2);
}

}  // namespace
}  // namespace nephele
