// Capacity and footprint of the per-domain grant and event-channel tables.
// Both keep max_entries()/max_ports() as the admission cap with first-fit
// allocation, but store entries only up to their high-water mark, so these
// tests pin the behaviour at the cap, inside the cap past the used range,
// and across cloning (a child stores exactly its parent's used range).

#include <gtest/gtest.h>

#include <vector>

#include "src/core/system.h"
#include "src/hypervisor/hypervisor.h"
#include "src/hypervisor/invariants.h"
#include "src/obs/trace.h"

namespace nephele {
namespace {

class TableCapacityTest : public ::testing::Test {
 protected:
  TableCapacityTest() : hv_(loop_, DefaultCostModel(), SmallPool(), {metrics_, trace_, faults_}) {}

  static HypervisorConfig SmallPool() {
    HypervisorConfig cfg;
    cfg.pool_frames = 64;
    return cfg;
  }

  // A domain with one data page to grant.
  DomId GuestWithPage() {
    auto dom = hv_.CreateDomain("g", 1);
    EXPECT_TRUE(dom.ok());
    EXPECT_TRUE(hv_.PopulatePhysmap(*dom, 1, PageRole::kData).ok());
    return *dom;
  }

  EventLoop loop_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{loop_};
  FaultInjector faults_{metrics_};
  Hypervisor hv_;
};

TEST_F(TableCapacityTest, GrantRefsFillTheCapFirstFit) {
  DomId g = GuestWithPage();
  DomId grantee = GuestWithPage();
  const std::size_t cap = hv_.FindDomain(g)->grants.max_entries();
  ASSERT_EQ(cap, 1024u);
  for (std::size_t i = 0; i < cap; ++i) {
    auto ref = hv_.GrantAccess(g, grantee, 0, /*readonly=*/false);
    ASSERT_TRUE(ref.ok()) << i;
    EXPECT_EQ(*ref, i);
  }
  EXPECT_EQ(hv_.GrantAccess(g, grantee, 0, false).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(hv_.FindDomain(g)->grants.used_limit(), cap);
  ASSERT_TRUE(hv_.EndGrantAccess(g, 5).ok());
  auto reused = hv_.GrantAccess(g, grantee, 0, false);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, 5u);
  EXPECT_EQ(CheckGrantInvariants(hv_), "");
}

TEST_F(TableCapacityTest, PortsFillTheCapFirstFitAndNeverPortZero) {
  DomId d = GuestWithPage();
  const std::size_t cap = hv_.FindDomain(d)->evtchns.max_ports();
  ASSERT_EQ(cap, 1024u);
  EXPECT_EQ(hv_.FindDomain(d)->evtchns.used_port_limit(), 1u);
  for (std::size_t want = 1; want < cap; ++want) {
    auto port = hv_.EvtchnAllocUnbound(d, kDom0);
    ASSERT_TRUE(port.ok()) << want;
    EXPECT_EQ(*port, want);
  }
  EXPECT_EQ(hv_.EvtchnAllocUnbound(d, kDom0).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hv_.FindDomain(d)->evtchns.used_port_limit(), cap);
  ASSERT_TRUE(hv_.EvtchnClose(d, 17).ok());
  auto reused = hv_.EvtchnAllocUnbound(d, kDom0);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, 17u);
}

TEST_F(TableCapacityTest, InsideTheCapPastTheUsedRangeIsNotFound) {
  DomId g = GuestWithPage();
  DomId other = GuestWithPage();
  ASSERT_TRUE(hv_.GrantAccess(g, other, 0, false).ok());
  ASSERT_TRUE(hv_.EvtchnAllocUnbound(g, other).ok());
  const Domain* gd = hv_.FindDomain(g);
  ASSERT_LT(gd->grants.used_limit(), 900u);
  ASSERT_LT(gd->evtchns.used_port_limit(), 500u);
  EXPECT_FALSE(gd->grants.entry(900).in_use);
  EXPECT_EQ(gd->evtchns.entry(500).state, EvtchnState::kFree);

  EXPECT_EQ(hv_.MapGrant(other, g, 900).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.EvtchnBindInterdomain(other, g, 500).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.EvtchnClose(g, 500).code(), StatusCode::kNotFound);
  EXPECT_EQ(CheckHypervisorInvariants(hv_), "");
}

TEST_F(TableCapacityTest, SendToARemotePortPastItsUsedRangeIsNotConnected) {
  DomId a = GuestWithPage();
  DomId b = GuestWithPage();
  auto pb = hv_.EvtchnAllocUnbound(b, a);
  ASSERT_TRUE(pb.ok());
  auto pa = hv_.EvtchnBindInterdomain(a, b, *pb);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(hv_.EvtchnSend(a, *pa).ok());
  // A stale handle naming a port inside b's cap that b never allocated.
  hv_.FindDomain(a)->evtchns.mutable_entry(*pa).remote_port = 500;
  ASSERT_LT(hv_.FindDomain(b)->evtchns.used_port_limit(), 500u);
  EXPECT_EQ(hv_.EvtchnSend(a, *pa).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(hv_.FindDomain(b)->evtchns.used_port_limit(), 2u);
}

TEST_F(TableCapacityTest, LoopbackBindGrowsTheTableItReservedIn) {
  DomId d = GuestWithPage();
  // Fill the stored range so the bind's own allocation must grow (and may
  // move) the table that holds the reservation it then connects.
  std::vector<EvtchnPort> ports;
  for (int i = 0; i < 7; ++i) {
    auto port = hv_.EvtchnAllocUnbound(d, d);
    ASSERT_TRUE(port.ok());
    ports.push_back(*port);
  }
  const EvtchnPort reserved = ports.back();
  auto bound = hv_.EvtchnBindInterdomain(d, d, reserved);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, reserved + 1);
  const EvtchnTable& t = hv_.FindDomain(d)->evtchns;
  EXPECT_EQ(t.entry(reserved).state, EvtchnState::kInterdomain);
  EXPECT_EQ(t.entry(reserved).remote_port, *bound);
  EXPECT_EQ(t.entry(*bound).state, EvtchnState::kInterdomain);
  EXPECT_EQ(t.entry(*bound).remote_port, reserved);
  EXPECT_EQ(CheckEvtchnInvariants(hv_), "");
}

TEST(GrantTableTest, CloneForChildDropsMappingsAndLeavesTheParent) {
  GrantTable parent;
  constexpr DomId kMapper = 7;
  auto mapped = parent.GrantAccess(kMapper, /*gfn=*/3, /*readonly=*/true);
  auto wildcard = parent.GrantAccess(kDomChild, /*gfn=*/4, /*readonly=*/false);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(wildcard.ok());
  ASSERT_TRUE(parent.Map(*mapped, kMapper, /*mapper_is_child_of_granter=*/false).ok());

  GrantTable child = parent.CloneForChild();
  EXPECT_EQ(child.used_limit(), parent.used_limit());
  EXPECT_EQ(child.active_entries(), 2u);
  const GrantEntry& ce = child.entry(*mapped);
  EXPECT_TRUE(ce.in_use);
  EXPECT_TRUE(ce.readonly);
  EXPECT_EQ(ce.grantee, kMapper);
  EXPECT_EQ(ce.gfn, 3u);
  EXPECT_EQ(ce.map_count, 0u);
  EXPECT_TRUE(child.mappers(*mapped).empty());
  EXPECT_EQ(child.entry(*wildcard).grantee, kDomChild);
  // The child's copy can be revoked; the parent's is still pinned.
  EXPECT_TRUE(child.EndAccess(*mapped).ok());

  EXPECT_EQ(parent.entry(*mapped).map_count, 1u);
  EXPECT_EQ(parent.mappers(*mapped), std::vector<DomId>{kMapper});
  EXPECT_EQ(parent.EndAccess(*mapped).code(), StatusCode::kFailedPrecondition);
}

TEST(GrantTableTest, MapAndUnmapCheckInOrder) {
  GrantTable t;
  auto ref = t.GrantAccess(/*grantee=*/7, /*gfn=*/0, false);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(t.Map(*ref + 1, 7, false).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t.Map(*ref, 8, false).status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(t.Unmap(*ref + 1, 7).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.Unmap(*ref, 7).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(t.Map(*ref, 7, false).ok());
  ASSERT_TRUE(t.Map(*ref, 7, false).ok());
  EXPECT_EQ(t.Unmap(*ref, 8).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(t.mappers(*ref), (std::vector<DomId>{7, 7}));
  EXPECT_TRUE(t.Unmap(*ref, 7).ok());
  EXPECT_EQ(t.entry(*ref).map_count, 1u);
  EXPECT_TRUE(t.Unmap(*ref, 7).ok());
  EXPECT_TRUE(t.mappers(*ref).empty());
  EXPECT_TRUE(t.EndAccess(*ref).ok());
}

TEST(TableFootprintTest, ClonesStoreTheirParentsUsedRange) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  NepheleSystem system(cfg);
  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 16;
  dcfg.with_vif = true;
  auto parent = system.toolstack().CreateDomain(dcfg);
  ASSERT_TRUE(parent.ok());
  const Domain* pd = system.hypervisor().FindDomain(*parent);
  // The vif's rings and buffers are granted, none ended: a packed range.
  ASSERT_GT(pd->grants.active_entries(), 0u);
  EXPECT_EQ(pd->grants.used_limit(), pd->grants.active_entries());
  EXPECT_LT(pd->grants.used_limit(), pd->grants.max_entries());

  std::vector<DomId> children;
  for (int i = 0; i < 16; ++i) {
    const Mfn start_info = pd->p2m[pd->start_info_gfn].mfn;
    auto batch = system.clone_engine().Clone({*parent, *parent, start_info, 1});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    system.Settle();
    children.insert(children.end(), batch->begin(), batch->end());
  }
  ASSERT_EQ(children.size(), 16u);
  for (DomId c : children) {
    const Domain* cd = system.hypervisor().FindDomain(c);
    ASSERT_NE(cd, nullptr);
    EXPECT_EQ(cd->grants.used_limit(), pd->grants.used_limit()) << "child " << c;
    EXPECT_EQ(cd->evtchns.used_port_limit(), pd->evtchns.used_port_limit()) << "child " << c;
  }
  EXPECT_EQ(CheckHypervisorInvariants(system.hypervisor()), "");
}

}  // namespace
}  // namespace nephele
