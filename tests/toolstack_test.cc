#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/xenstore/path.h"

namespace nephele {
namespace {

class ToolstackTest : public ::testing::Test {
 protected:
  ToolstackTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;  // 256 MiB pool
    return cfg;
  }

  DomainConfig GuestConfig(const std::string& name) {
    DomainConfig cfg;
    cfg.name = name;
    cfg.memory_mb = 4;
    return cfg;
  }

  NepheleSystem system_;
};

TEST_F(ToolstackTest, LayoutAccountsForEverything) {
  DomainConfig cfg = GuestConfig("a");
  GuestMemoryLayout layout = ComputeGuestLayout(cfg);
  EXPECT_EQ(layout.total_pages, 1024u);
  EXPECT_EQ(layout.total_pages, layout.text_pages + layout.data_pages + layout.heap_pages +
                                    layout.special_pages + layout.io_pages);
  // Without a vif there are no I/O pages; heap grows accordingly.
  cfg.with_vif = false;
  GuestMemoryLayout no_vif = ComputeGuestLayout(cfg);
  EXPECT_EQ(no_vif.io_pages, 0u);
  EXPECT_GT(no_vif.heap_pages, layout.heap_pages);
}

TEST_F(ToolstackTest, MinDomainSizeEnforced) {
  DomainConfig cfg = GuestConfig("a");
  cfg.memory_mb = 1;  // below Xen's 4 MiB minimum
  GuestMemoryLayout layout = ComputeGuestLayout(cfg);
  EXPECT_EQ(layout.total_pages, 1024u);  // clamped up
}

TEST_F(ToolstackTest, CreateDomainBuildsFullGuest) {
  auto dom = system_.toolstack().CreateDomain(GuestConfig("guest-a"));
  ASSERT_TRUE(dom.ok());
  const Domain* d = system_.hypervisor().FindDomain(*dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  EXPECT_EQ(d->tot_pages(), 1024u);
  EXPECT_FALSE(d->page_table_frames.empty());
  // Devices exist and are connected.
  GuestDevices* gd = system_.toolstack().FindDevices(*dom);
  ASSERT_NE(gd, nullptr);
  ASSERT_NE(gd->net, nullptr);
  EXPECT_TRUE(gd->net->connected());
  EXPECT_TRUE(system_.devices().console().HasConsole(*dom));
  // Xenstore entries written and domain introduced.
  EXPECT_TRUE(system_.xenstore().DomainKnown(*dom));
  EXPECT_EQ(*system_.xenstore().Read(XsDomainPath(*dom) + "/name"), "guest-a");
  EXPECT_EQ(*system_.xenstore().Read(XsFrontendPath(*dom, "vif", 0) + "/state"), "4");
  EXPECT_EQ(*system_.xenstore().Read(XsBackendPath(kDom0, "vif", *dom, 0) + "/hotplug-status"),
            "connected");
}

TEST_F(ToolstackTest, BootChargesRealisticTime) {
  SimTime before = system_.Now();
  ASSERT_TRUE(system_.toolstack().CreateDomain(GuestConfig("a")).ok());
  double ms = (system_.Now() - before).ToMillis();
  // Fig. 4 anchor: first boots land in the 140-180 ms band.
  EXPECT_GT(ms, 120.0);
  EXPECT_LT(ms, 200.0);
}

TEST_F(ToolstackTest, VifAttachedToDefaultSwitch) {
  Bond bond;
  system_.toolstack().SetDefaultSwitch(&bond);
  auto dom = system_.toolstack().CreateDomain(GuestConfig("a"));
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(bond.num_ports(), 1u);
}

TEST_F(ToolstackTest, CloneConfigPropagatesToHypervisor) {
  DomainConfig cfg = GuestConfig("a");
  cfg.max_clones = 7;
  auto dom = system_.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(dom.ok());
  EXPECT_TRUE(system_.hypervisor().FindDomain(*dom)->cloning_enabled);
  EXPECT_EQ(system_.hypervisor().FindDomain(*dom)->max_clones, 7u);
}

TEST_F(ToolstackTest, NameCheckAblation) {
  system_.toolstack().SetNameCheckEnabled(true);
  ASSERT_TRUE(system_.toolstack().CreateDomain(GuestConfig("same")).ok());
  auto dup = system_.toolstack().CreateDomain(GuestConfig("same"));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  system_.toolstack().SetNameCheckEnabled(false);
  EXPECT_TRUE(system_.toolstack().CreateDomain(GuestConfig("same")).ok());
}

TEST_F(ToolstackTest, DestroyReleasesResourcesAndRegistry) {
  std::size_t free_before = system_.hypervisor().FreePoolFrames();
  auto dom = system_.toolstack().CreateDomain(GuestConfig("a"));
  ASSERT_TRUE(dom.ok());
  ASSERT_TRUE(system_.toolstack().DestroyDomain(*dom).ok());
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
  EXPECT_FALSE(system_.xenstore().DomainKnown(*dom));
  EXPECT_FALSE(system_.xenstore().Exists(XsDomainPath(*dom)));
  EXPECT_EQ(system_.toolstack().FindDevices(*dom), nullptr);
}

TEST_F(ToolstackTest, SaveRestoreRoundTrip) {
  auto dom = system_.toolstack().CreateDomain(GuestConfig("a"));
  ASSERT_TRUE(dom.ok());
  auto image = system_.toolstack().SaveDomain(*dom);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->pages, 1024u);
  ASSERT_TRUE(system_.toolstack().DestroyDomain(*dom).ok());

  SimTime before = system_.Now();
  auto restored = system_.toolstack().RestoreDomain(*image);
  ASSERT_TRUE(restored.ok());
  double restore_ms = (system_.Now() - before).ToMillis();
  const Domain* d = system_.hypervisor().FindDomain(*restored);
  EXPECT_EQ(d->tot_pages(), 1024u);
  EXPECT_EQ(d->state, DomainState::kRunning);
  // Restore sits above boot (whole memory copied back; Fig. 4).
  EXPECT_GT(restore_ms, 150.0);
}

TEST_F(ToolstackTest, SaveLeavesAPausedDomainPaused) {
  // A clone started paused (the fuzzing setup) ...
  DomainConfig cfg = GuestConfig("parent");
  cfg.max_clones = 1;
  cfg.start_clones_paused = true;
  auto parent = system_.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  const Domain* p = system_.hypervisor().FindDomain(*parent);
  auto children =
      system_.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  system_.Settle();
  const DomId child = children->front();
  ASSERT_EQ(system_.hypervisor().FindDomain(child)->state, DomainState::kPaused);
  // ... and an emigration source parked until Complete or Abort.
  auto parked = system_.toolstack().CreateDomain(GuestConfig("parked"));
  ASSERT_TRUE(parked.ok());
  ASSERT_TRUE(system_.toolstack().BeginMigrateOut(*parked).ok());

  for (DomId dom : {child, *parked}) {
    ASSERT_TRUE(system_.toolstack().SaveDomain(dom).ok());
    EXPECT_EQ(system_.hypervisor().FindDomain(dom)->state, DomainState::kPaused)
        << "domid " << dom;
  }
  // A running domain runs again once saved.
  ASSERT_TRUE(system_.toolstack().SaveDomain(*parent).ok());
  EXPECT_EQ(system_.hypervisor().FindDomain(*parent)->state, DomainState::kRunning);
}

TEST_F(ToolstackTest, SaveUnknownDomainFails) {
  EXPECT_EQ(system_.toolstack().SaveDomain(404).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(system_.toolstack().DestroyDomain(404).code(), StatusCode::kNotFound);
}

TEST_F(ToolstackTest, P9GuestGetsBackendProcess) {
  (void)system_.devices().hostfs().CreateFile("/srv/guest-root/etc/hosts");
  DomainConfig cfg = GuestConfig("a");
  cfg.with_p9fs = true;
  auto dom = system_.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(dom.ok());
  GuestDevices* gd = system_.toolstack().FindDevices(*dom);
  ASSERT_NE(gd->p9, nullptr);
  EXPECT_TRUE(gd->p9->ServesDomain(*dom));
  EXPECT_EQ(*system_.xenstore().Read(XsBackendPath(kDom0, "9pfs", *dom, 0) + "/state"), "4");
}

TEST_F(ToolstackTest, IdleP9BackendsAreReaped) {
  // One backend process per booted 9pfs guest, gone with its last domain:
  // boot/destroy cycles must not pile up 9 MiB processes in Dom0.
  DomainConfig cfg = GuestConfig("p9");
  cfg.with_p9fs = true;
  const std::size_t backend_before = system_.devices().Dom0BackendBytes();
  for (int i = 0; i < 100; ++i) {
    auto dom = system_.toolstack().CreateDomain(cfg);
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();
    ASSERT_TRUE(system_.toolstack().DestroyDomain(*dom).ok());
  }
  system_.Settle();
  EXPECT_EQ(system_.devices().p9().NumProcesses(), 0u);
  EXPECT_EQ(system_.devices().Dom0BackendBytes(), backend_before);

  // A clone family shares its parent's process, which lives until the last
  // member is destroyed, whatever the order.
  cfg.max_clones = 1;
  auto parent = system_.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  const Domain* p = system_.hypervisor().FindDomain(*parent);
  auto children =
      system_.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  system_.Settle();
  ASSERT_EQ(system_.devices().p9().NumProcesses(), 1u);
  ASSERT_TRUE(system_.toolstack().DestroyDomain(*parent).ok());
  EXPECT_EQ(system_.devices().p9().NumProcesses(), 1u);
  GuestDevices* child_devices = system_.toolstack().FindDevices(children->front());
  ASSERT_NE(child_devices, nullptr);
  ASSERT_NE(child_devices->p9, nullptr);
  EXPECT_TRUE(child_devices->p9->ServesDomain(children->front()));
  ASSERT_TRUE(system_.toolstack().DestroyDomain(children->front()).ok());
  system_.Settle();
  EXPECT_EQ(system_.devices().p9().NumProcesses(), 0u);
  EXPECT_EQ(system_.devices().Dom0BackendBytes(), backend_before);
}

// Boot/destroy and clone/destroy cycles hand every byte of Dom0 back:
// Xenstore's node, name and value bytes, the backend directories and the
// device backends, with and without a vif.
class Dom0CycleTest : public ToolstackTest, public ::testing::WithParamInterface<bool> {
 protected:
  DomainConfig CycleConfig(const std::string& name) {
    DomainConfig cfg = GuestConfig(name);
    cfg.with_vif = GetParam();
    return cfg;
  }
  void BootAndDestroy(const std::string& name) {
    auto dom = system_.toolstack().CreateDomain(CycleConfig(name));
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();
    system_.Settle();
    ASSERT_TRUE(system_.toolstack().DestroyDomain(*dom).ok());
    system_.Settle();
  }
  void RecordDom0() {
    xs_bytes_before_ = system_.xenstore().ApproxMemoryBytes();
    entries_before_ = system_.xenstore().NumEntries();
    dom0_free_before_ = system_.toolstack().Dom0FreeBytes();
  }
  void ExpectDom0AsRecorded() {
    EXPECT_EQ(system_.xenstore().ApproxMemoryBytes(), xs_bytes_before_);
    EXPECT_EQ(system_.xenstore().NumEntries(), entries_before_);
    EXPECT_EQ(system_.toolstack().Dom0FreeBytes(), dom0_free_before_);
  }

  std::size_t xs_bytes_before_ = 0;
  std::size_t entries_before_ = 0;
  std::size_t dom0_free_before_ = 0;
};

TEST_P(Dom0CycleTest, BootDestroyReturnsEveryByte) {
  // The first guest creates the directories every guest shares (/vm,
  // /libxl, Dom0's backend/<type>); they stay.
  BootAndDestroy("first");
  RecordDom0();
  for (int i = 0; i < 10; ++i) {
    BootAndDestroy("cycle" + std::to_string(i));
    ExpectDom0AsRecorded();
  }
}

TEST_P(Dom0CycleTest, CloneDestroyReturnsEveryByte) {
  DomainConfig cfg = CycleConfig("parent");
  cfg.max_clones = 16;
  auto parent = system_.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok()) << parent.status().ToString();
  system_.Settle();
  RecordDom0();
  const Domain* p = system_.hypervisor().FindDomain(*parent);
  const Mfn start_info = p->p2m[p->start_info_gfn].mfn;
  for (int i = 0; i < 10; ++i) {
    auto children = system_.clone_engine().Clone({*parent, *parent, start_info, 1});
    ASSERT_TRUE(children.ok()) << children.status().ToString();
    system_.Settle();
    ASSERT_NE(system_.toolstack().FindConfig(children->front()), nullptr);
    ASSERT_TRUE(system_.toolstack().DestroyDomain(children->front()).ok());
    system_.Settle();
    ExpectDom0AsRecorded();
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, Dom0CycleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& vif) {
                           return vif.param ? "Vif" : "NoVif";
                         });

TEST_F(ToolstackTest, Dom0MemoryDecreasesPerGuest) {
  std::size_t free0 = system_.toolstack().Dom0FreeBytes();
  ASSERT_TRUE(system_.toolstack().CreateDomain(GuestConfig("a")).ok());
  std::size_t free1 = system_.toolstack().Dom0FreeBytes();
  EXPECT_LT(free1, free0);
  // Per-instance Dom0 cost is on the order of ~100 KiB (Fig. 5 rate).
  std::size_t per_instance = free0 - free1;
  EXPECT_GT(per_instance, 50 * 1024u);
  EXPECT_LT(per_instance, 400 * 1024u);
}

TEST_F(ToolstackTest, MacAndIpAutoAssignedUnique) {
  auto a = system_.toolstack().CreateDomain(GuestConfig("a"));
  auto b = system_.toolstack().CreateDomain(GuestConfig("b"));
  GuestDevices* da = system_.toolstack().FindDevices(*a);
  GuestDevices* db = system_.toolstack().FindDevices(*b);
  EXPECT_NE(da->net->mac(), db->net->mac());
  EXPECT_NE(da->net->ip(), db->net->ip());
}

TEST_F(ToolstackTest, RunningDomainsListsManaged) {
  auto a = system_.toolstack().CreateDomain(GuestConfig("a"));
  auto b = system_.toolstack().CreateDomain(GuestConfig("b"));
  auto doms = system_.toolstack().RunningDomains();
  EXPECT_EQ(doms.size(), 2u);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
}

TEST_F(ToolstackTest, BootFailsWhenPoolExhausted) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 512;  // 2 MiB: not enough for one 4 MiB guest
  NepheleSystem tiny(cfg);
  auto dom = tiny.toolstack().CreateDomain(DomainConfig{.name = "big"});
  EXPECT_EQ(dom.status().code(), StatusCode::kResourceExhausted);
  // Partial allocation rolled back.
  EXPECT_EQ(tiny.hypervisor().NumDomains(), 1u);  // only Dom0
}

}  // namespace
}  // namespace nephele
