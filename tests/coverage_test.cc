// Cross-cutting coverage: combined-device guests, save/restore with every
// device type, datapath edge cases, and API misuse paths that the per-module
// suites do not reach.

#include <gtest/gtest.h>

#include "src/apps/udp_ready_app.h"
#include "src/faas/gateway.h"
#include "src/fuzz/fuzz_session.h"
#include "src/guest/guest_manager.h"
#include "src/xenstore/path.h"

namespace nephele {
namespace {

class CoverageTest : public ::testing::Test {
 protected:
  CoverageTest() : system_(SmallSystem()), guests_(system_) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 128 * 1024;
    return cfg;
  }

  DomainConfig FullConfig(const std::string& name) {
    DomainConfig cfg;
    cfg.name = name;
    cfg.memory_mb = 8;
    cfg.max_clones = 8;
    cfg.with_vif = true;
    cfg.with_p9fs = true;
    cfg.with_vbd = true;
    cfg.vbd_size_mb = 8;
    (void)system_.devices().hostfs().CreateFile(cfg.p9_export + "/seed");
    return cfg;
  }

  NepheleSystem system_;
  GuestManager guests_;
};

TEST_F(CoverageTest, GuestWithEveryDeviceTypeBoots) {
  auto dom = guests_.Launch(FullConfig("full"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  system_.Settle();
  GuestDevices* gd = system_.toolstack().FindDevices(*dom);
  EXPECT_NE(gd->net, nullptr);
  EXPECT_NE(gd->p9, nullptr);
  EXPECT_NE(gd->vbd, nullptr);
  EXPECT_TRUE(system_.devices().console().HasConsole(*dom));
}

TEST_F(CoverageTest, CloneWithEveryDeviceType) {
  auto dom = guests_.Launch(FullConfig("full"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  ASSERT_TRUE(guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
  system_.Settle();
  DomId child = system_.hypervisor().FindDomain(*dom)->children.front();
  GuestDevices* cd = system_.toolstack().FindDevices(child);
  ASSERT_NE(cd, nullptr);
  EXPECT_NE(cd->net, nullptr);
  EXPECT_NE(cd->p9, nullptr);
  EXPECT_NE(cd->vbd, nullptr);
  // Xenstore trees cloned for all four device types.
  EXPECT_TRUE(system_.xenstore().Exists(XsFrontendPath(child, "vif", 0)));
  EXPECT_TRUE(system_.xenstore().Exists(XsBackendPath(kDom0, "9pfs", child, 0)));
  EXPECT_TRUE(system_.xenstore().Exists(XsBackendPath(kDom0, "vbd", child, 0)));
  EXPECT_TRUE(system_.xenstore().Exists(XsDomainPath(child) + "/console"));
}

TEST_F(CoverageTest, DestroyFullGuestLeavesNothingBehind) {
  std::size_t free_frames = system_.hypervisor().FreePoolFrames();
  std::size_t entries = system_.xenstore().NumEntries();
  auto dom = guests_.Launch(FullConfig("full"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  ASSERT_TRUE(guests_.Destroy(*dom).ok());
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_frames);
  // /local/domain subtree removed; only /vm, /libxl counters differ by
  // their removal too.
  EXPECT_EQ(system_.xenstore().NumEntries(), entries);
  EXPECT_FALSE(system_.devices().vbd().HasDisk(DeviceId{*dom, DeviceType::kVbd, 0}));
}

TEST_F(CoverageTest, RestoreRebuildsEveryDevice) {
  auto dom = guests_.Launch(FullConfig("full"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  auto image = system_.toolstack().SaveDomain(*dom);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(guests_.Destroy(*dom).ok());
  auto restored = guests_.Restore(*image, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(restored.ok());
  system_.Settle();
  GuestDevices* gd = system_.toolstack().FindDevices(*restored);
  EXPECT_NE(gd->net, nullptr);
  EXPECT_NE(gd->p9, nullptr);
  EXPECT_NE(gd->vbd, nullptr);
  // Restored domain can clone (config preserved).
  ASSERT_TRUE(guests_.ContextOf(*restored)->Fork(1, nullptr).ok());
  system_.Settle();
  EXPECT_EQ(system_.hypervisor().FindDomain(*restored)->children.size(), 1u);
}

TEST_F(CoverageTest, TxRingBackpressureDropsGracefully) {
  auto dom = guests_.Launch(FullConfig("full"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestDevices* gd = system_.toolstack().FindDevices(*dom);
  // Stuff the TX ring without letting the backend drain (no Settle).
  Packet p;
  p.proto = IpProto::kUdp;
  p.src_ip = gd->net->ip();
  p.dst_ip = MakeIpv4(10, 8, 255, 1);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < gd->net->tx_ring().capacity() + 10; ++i) {
    if (gd->net->Send(p).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, gd->net->tx_ring().capacity());
  system_.Settle();  // backend drains everything eventually
  EXPECT_TRUE(gd->net->tx_ring().empty());
}

TEST_F(CoverageTest, RxRingOverflowDropsExcess) {
  auto dom = guests_.Launch(FullConfig("full"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  ASSERT_TRUE(system_.toolstack().PauseDomain(*dom).ok());  // keep RX pending
  GuestDevices* gd = system_.toolstack().FindDevices(*dom);
  Vif* vif = system_.devices().netback().FindVif(DeviceId{*dom, DeviceType::kVif, 0});
  for (std::size_t i = 0; i < gd->net->rx_ring().capacity() + 16; ++i) {
    vif->DeliverToGuest(Packet{});
  }
  EXPECT_EQ(gd->net->rx_ring().size(), gd->net->rx_ring().capacity());
}

TEST_F(CoverageTest, EventLoopPendingIntrospection) {
  EventLoop loop;
  EXPECT_FALSE(loop.HasPendingEvents());
  loop.Post(SimDuration::Millis(1), [] {});
  loop.Post(SimDuration::Millis(2), [] {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.RunUntil(SimTime(SimDuration::Millis(1).ns()));
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_FALSE(loop.HasPendingEvents());
}

TEST_F(CoverageTest, PendingEventDeliveredOnUnpause) {
  Hypervisor& hv = system_.hypervisor();
  auto a = hv.CreateDomain("a", 1);
  auto b = hv.CreateDomain("b", 1);
  (void)hv.UnpauseDomain(*a);
  auto port_b = hv.EvtchnAllocUnbound(*b, *a);
  auto port_a = hv.EvtchnBindInterdomain(*a, *b, *port_b);
  int fired = 0;
  hv.SetEvtchnHandler(*b, [&](EvtchnPort) { ++fired; });
  ASSERT_TRUE(hv.EvtchnSend(*a, *port_a).ok());
  system_.Settle();
  EXPECT_EQ(fired, 0);  // b paused: pending bit set, no upcall
  ASSERT_TRUE(hv.UnpauseDomain(*b).ok());
  system_.Settle();
  EXPECT_EQ(fired, 1);  // delivered on unpause
}

TEST_F(CoverageTest, FuzzSessionZeroDurationIsEmpty) {
  FuzzSessionConfig cfg;
  cfg.mode = FuzzMode::kLinuxProcess;
  cfg.duration = SimDuration::Seconds(0);
  auto result = RunFuzzSession(guests_, cfg);
  EXPECT_EQ(result.total_executions, 0u);
  EXPECT_TRUE(result.series.empty());
}

TEST_F(CoverageTest, GatewayRampDemandScalesGradually) {
  EventLoop loop;
  ContainerBackend backend(loop);
  GatewayConfig gcfg;
  gcfg.query_interval = SimDuration::Seconds(10);
  OpenFaasGateway gateway(loop, backend, gcfg);
  // Demand ramps 0 -> 100 RPS over 100 s: instances appear progressively.
  auto result = gateway.Run(SimDuration::Seconds(120),
                            [](double t) { return std::min(100.0, t); });
  std::size_t early = result.series[20].instances_total;
  std::size_t late = result.series.back().instances_total;
  EXPECT_GT(late, early);
  EXPECT_GT(late, 3u);
}

TEST_F(CoverageTest, BondWithNoSlavesDropsIngress) {
  Bond bond;
  bond.InjectFromUplink(Packet{});  // must not crash
  EXPECT_EQ(bond.num_ports(), 0u);
}

TEST_F(CoverageTest, CloneBatchSharesSnapshotConsistently) {
  // A 3-way batch: all children see the parent's state at CLONEOP time even
  // though their second stages complete one after another.
  auto dom = guests_.Launch(FullConfig("batch"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestMemoryLayout layout = ComputeGuestLayout(FullConfig("batch"));
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  std::uint8_t stamp = 0x77;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(*dom, gfn, 0, &stamp, 1).ok());
  ASSERT_TRUE(guests_.ContextOf(*dom)->Fork(3, nullptr).ok());
  system_.Settle();
  for (DomId c : system_.hypervisor().FindDomain(*dom)->children) {
    std::uint8_t got = 0;
    ASSERT_TRUE(system_.hypervisor().ReadGuestPage(c, gfn, 0, &got, 1).ok());
    EXPECT_EQ(got, 0x77);
  }
  // Shared frame refcount: parent + 3 children.
  Mfn mfn = system_.hypervisor().FindDomain(*dom)->p2m[gfn].mfn;
  EXPECT_EQ(system_.hypervisor().frames().info(mfn).refcount, 4u);
}

TEST_F(CoverageTest, VbdSurvivesRestoreIndependently) {
  auto dom = guests_.Launch(FullConfig("disky"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  GuestDevices* gd = system_.toolstack().FindDevices(*dom);
  ASSERT_TRUE(gd->vbd->Write(0, {1, 2, 3}).ok());
  auto image = system_.toolstack().SaveDomain(*dom);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(guests_.Destroy(*dom).ok());
  auto restored = guests_.Restore(*image, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(restored.ok());
  system_.Settle();
  // The restored guest gets a FRESH zeroed disk (disk contents are not part
  // of the memory image — matching xl's behaviour for throwaway vbds).
  auto data = system_.toolstack().FindDevices(*restored)->vbd->Read(0, 3);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST_F(CoverageTest, XenstoreEntriesScaleWithDeviceCount) {
  std::size_t before = system_.xenstore().NumEntries();
  DomainConfig lean;
  lean.name = "lean";
  lean.with_vif = false;
  auto lean_dom = guests_.Launch(lean, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  std::size_t lean_entries = system_.xenstore().NumEntries() - before;
  auto full_dom =
      guests_.Launch(FullConfig("fat"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  std::size_t full_entries =
      system_.xenstore().NumEntries() - before - lean_entries;
  EXPECT_GT(full_entries, lean_entries + 15);
  ASSERT_TRUE(lean_dom.ok());
  ASSERT_TRUE(full_dom.ok());
}

}  // namespace
}  // namespace nephele
