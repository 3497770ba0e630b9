#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/xenstore/path.h"

namespace nephele {
namespace {

class XenclonedTest : public ::testing::Test {
 protected:
  XenclonedTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 128 * 1024;
    return cfg;
  }

  DomId BootParent(bool with_p9 = false) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.max_clones = 32;
    cfg.with_p9fs = with_p9;
    if (with_p9) {
      (void)system_.devices().hostfs().CreateFile(cfg.p9_export + "/python3");
    }
    auto dom = system_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok());
    return *dom;
  }

  DomId CloneOnce(DomId parent) {
    const Domain* p = system_.hypervisor().FindDomain(parent);
    auto children =
        system_.clone_engine().Clone({parent, parent, p->p2m[p->start_info_gfn].mfn, 1});
    EXPECT_TRUE(children.ok()) << children.status().ToString();
    system_.Settle();
    return children->front();
  }

  std::uint64_t Count(std::string_view name) const {
    return system_.metrics().CounterValue(name);
  }
  // Xenstore requests that modify the store: write, mkdir and rm.
  std::uint64_t XsWrites() const {
    return Count("xenstore/requests/write") + Count("xenstore/requests/mkdir") +
           Count("xenstore/requests/rm");
  }

  NepheleSystem system_;
};

TEST_F(XenclonedTest, SecondStageBuildsChildRegistry) {
  DomId parent = BootParent();
  DomId child = CloneOnce(parent);
  XenstoreDaemon& xs = system_.xenstore();
  // Introduced with parent id, full Xenstore tree cloned & rewritten.
  EXPECT_TRUE(xs.DomainKnown(child));
  EXPECT_EQ(*xs.Read(XsDomainPath(child) + "/domid"), std::to_string(child));
  EXPECT_EQ(*xs.Read(XsFrontendPath(child, "vif", 0) + "/backend"),
            XsBackendPath(kDom0, "vif", child, 0));
  EXPECT_EQ(*xs.Read(XsBackendPath(kDom0, "vif", child, 0) + "/frontend-id"),
            std::to_string(child));
  // Toolstack registry adopted the clone.
  EXPECT_NE(system_.toolstack().FindConfig(child), nullptr);
  EXPECT_NE(system_.toolstack().FindDevices(child), nullptr);
}

TEST_F(XenclonedTest, GeneratedNamesAreUnique) {
  DomId parent = BootParent();
  DomId c1 = CloneOnce(parent);
  DomId c2 = CloneOnce(parent);
  std::string n1 = system_.hypervisor().FindDomain(c1)->name;
  std::string n2 = system_.hypervisor().FindDomain(c2)->name;
  EXPECT_NE(n1, n2);
  EXPECT_NE(n1, "parent");
  EXPECT_EQ(*system_.xenstore().Read(XsDomainPath(c1) + "/name"), n1);
}

TEST_F(XenclonedTest, CloneUsesFewXenstoreRequests) {
  DomId parent = BootParent();
  std::uint64_t before = Count("xenstore/requests/total");
  (void)CloneOnce(parent);
  std::uint64_t clone_requests = Count("xenstore/requests/total") - before;
  // xs_clone collapses per-entry writes: single-digit requests per clone
  // (Sec. 5.2.1) vs ~40 for a boot.
  EXPECT_LE(clone_requests, 10u);
  EXPECT_GE(Count("xenstore/requests/xs_clone"), 2u);
}

TEST_F(XenclonedTest, DeepCopyModeWritesEveryEntry) {
  DomId parent = BootParent();
  system_.xencloned().SetUseXsClone(false);
  std::uint64_t before = XsWrites();
  (void)CloneOnce(parent);
  std::uint64_t writes = XsWrites() - before;
  EXPECT_GT(writes, 20u);  // one request per entry
  EXPECT_GT(Count("xencloned/deep_copy_writes"), 20u);
}

TEST_F(XenclonedTest, ParentInfoCachedAfterFirstClone) {
  DomId parent = BootParent();
  (void)CloneOnce(parent);
  EXPECT_EQ(Count("xencloned/cache_misses"), 1u);
  EXPECT_EQ(Count("xencloned/cache_hits"), 0u);
  (void)CloneOnce(parent);
  EXPECT_EQ(Count("xencloned/cache_misses"), 1u);
  EXPECT_EQ(Count("xencloned/cache_hits"), 1u);
}

TEST_F(XenclonedTest, SecondCloneFasterThanFirst) {
  DomId parent = BootParent();
  SimTime t0 = system_.Now();
  (void)CloneOnce(parent);
  SimDuration first = system_.Now() - t0;
  SimTime t1 = system_.Now();
  (void)CloneOnce(parent);
  SimDuration second = system_.Now() - t1;
  EXPECT_LT(second, first);  // Sec. 6.2: 3 ms vs 1.9 ms userspace ops
}

TEST_F(XenclonedTest, CloneVifAttachedToDefaultSwitch) {
  Bond bond;
  system_.toolstack().SetDefaultSwitch(&bond);
  DomId parent = BootParent();
  EXPECT_EQ(bond.num_ports(), 1u);
  DomId child = CloneOnce(parent);
  EXPECT_EQ(bond.num_ports(), 2u);
  Vif* vif = system_.devices().netback().FindVif(DeviceId{child, DeviceType::kVif, 0});
  ASSERT_NE(vif, nullptr);
  EXPECT_EQ(vif->state(), XenbusState::kConnected);
  EXPECT_EQ(vif->attached_switch(), &bond);
}

TEST_F(XenclonedTest, CloneConsoleExists) {
  DomId parent = BootParent();
  (void)system_.devices().console().GuestWrite(parent, "parent says hi");
  DomId child = CloneOnce(parent);
  ASSERT_TRUE(system_.devices().console().HasConsole(child));
  EXPECT_EQ(*system_.devices().console().Output(child), "");  // not copied
}

TEST_F(XenclonedTest, P9FidTableClonedViaQmp) {
  DomId parent = BootParent(/*with_p9=*/true);
  GuestDevices* pd = system_.toolstack().FindDevices(parent);
  ASSERT_NE(pd->p9, nullptr);
  std::size_t parent_fids = pd->p9->NumFids(parent);
  DomId child = CloneOnce(parent);
  GuestDevices* cd = system_.toolstack().FindDevices(child);
  ASSERT_NE(cd->p9, nullptr);
  EXPECT_EQ(cd->p9, pd->p9);  // same backend process for the family
  EXPECT_EQ(cd->p9->NumFids(child), parent_fids);
}

TEST_F(XenclonedTest, ClonesCompletedCounted) {
  DomId parent = BootParent();
  (void)CloneOnce(parent);
  (void)CloneOnce(parent);
  EXPECT_EQ(Count("xencloned/clones_completed"), 2u);
}

TEST_F(XenclonedTest, StartClonesPausedRespected) {
  DomainConfig cfg;
  cfg.name = "p";
  cfg.max_clones = 4;
  cfg.start_clones_paused = true;
  auto parent = system_.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  const Domain* p = system_.hypervisor().FindDomain(*parent);
  auto children =
      system_.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok());
  system_.Settle();
  // Parent resumed, child left paused (Sec. 5).
  EXPECT_EQ(system_.hypervisor().FindDomain(*parent)->state, DomainState::kRunning);
  EXPECT_TRUE(system_.hypervisor().FindDomain(children->front())->IsPaused());
}

}  // namespace
}  // namespace nephele
