#include <gtest/gtest.h>

#include "src/devices/console.h"
#include "src/devices/device_manager.h"
#include "src/devices/hostfs.h"
#include "src/devices/netif.h"
#include "src/devices/p9.h"
#include "src/devices/ring.h"
#include "src/net/switch.h"
#include "src/obs/trace.h"
#include "src/xenstore/store.h"

namespace nephele {
namespace {

TEST(SharedRing, PushPopFifo) {
  SharedRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  ASSERT_TRUE(ring.Push(1).ok());
  ASSERT_TRUE(ring.Push(2).ok());
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(*ring.Pop(), 1);
  EXPECT_EQ(*ring.Pop(), 2);
  EXPECT_EQ(ring.Pop().status().code(), StatusCode::kUnavailable);
}

TEST(SharedRing, FullRejectsPush) {
  SharedRing<int> ring(2);
  ASSERT_TRUE(ring.Push(1).ok());
  ASSERT_TRUE(ring.Push(2).ok());
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.Push(3).code(), StatusCode::kUnavailable);
}

TEST(SharedRing, CopyContentsDuplicatesPending) {
  SharedRing<int> src(8);
  ASSERT_TRUE(src.Push(7).ok());
  ASSERT_TRUE(src.Push(8).ok());
  SharedRing<int> dst(8);
  dst.CopyContentsFrom(src);
  EXPECT_EQ(dst.size(), 2u);
  EXPECT_EQ(*dst.Pop(), 7);
  // Copy is independent: draining dst leaves src intact.
  EXPECT_EQ(src.size(), 2u);
}

TEST(Xenbus, NamesAreStable) {
  EXPECT_EQ(XenbusStateName(XenbusState::kConnected), "Connected");
  EXPECT_EQ(XenbusStateValue(XenbusState::kConnected), "4");
  EXPECT_EQ(DeviceTypeName(DeviceType::kP9fs), "9pfs");
}

class DeviceFixture : public ::testing::Test {
 protected:
  DeviceFixture()
      : hv_(loop_, costs_, HypervisorConfig{.pool_frames = 16384}, services_),
        xs_(loop_, costs_, services_),
        devices_(hv_, xs_, loop_, costs_, services_) {}

  DomId NewDomain() {
    auto dom = hv_.CreateDomain("d", 1);
    (void)hv_.UnpauseDomain(*dom);
    return *dom;
  }

  CostModel costs_;
  EventLoop loop_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{loop_};
  FaultInjector faults_{metrics_};
  SystemServices services_{metrics_, trace_, faults_};
  Hypervisor hv_;
  XenstoreDaemon xs_;
  DeviceManager devices_;
};

TEST_F(DeviceFixture, ConsoleLifecycle) {
  DomId dom = NewDomain();
  ASSERT_TRUE(devices_.console().CreateConsole(dom).ok());
  EXPECT_EQ(devices_.console().CreateConsole(dom).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(devices_.console().GuestWrite(dom, "boot ok\n").ok());
  EXPECT_EQ(*devices_.console().Output(dom), "boot ok\n");
  ASSERT_TRUE(devices_.console().DestroyConsole(dom).ok());
  EXPECT_EQ(devices_.console().Output(dom).status().code(), StatusCode::kNotFound);
}

TEST_F(DeviceFixture, ConsoleCloneStartsEmpty) {
  DomId parent = NewDomain();
  DomId child = NewDomain();
  ASSERT_TRUE(devices_.console().CreateConsole(parent).ok());
  ASSERT_TRUE(devices_.console().GuestWrite(parent, "parent output").ok());
  ASSERT_TRUE(devices_.console().CloneConsole(parent, child).ok());
  // Sec. 4.2: the parent's console output is NOT duplicated into the child.
  EXPECT_EQ(*devices_.console().Output(child), "");
  EXPECT_EQ(*devices_.console().Output(parent), "parent output");
}

TEST_F(DeviceFixture, ConsoleCloneNeedsParent) {
  EXPECT_EQ(devices_.console().CloneConsole(5, 6).code(), StatusCode::kNotFound);
}

TEST_F(DeviceFixture, NetFrontendAllocatesGuestPages) {
  DomId dom = NewDomain();
  NetFrontend fe(hv_, dom, 0, 0xaa, MakeIpv4(10, 0, 0, 1));
  ASSERT_TRUE(fe.AllocateRings().ok());
  const Domain* d = hv_.FindDomain(dom);
  EXPECT_EQ(d->tot_pages(), 2 + NetFrontend::kRxBufferPages + NetFrontend::kTxBufferPages);
  // All I/O pages are private roles (clone-duplicated).
  EXPECT_EQ(d->p2m[fe.tx_ring_gfn()].role, PageRole::kIoRing);
  EXPECT_EQ(d->p2m[fe.rx_buffer_gfn()].role, PageRole::kIoBuffer);
}

TEST_F(DeviceFixture, NetConnectAndTransmit) {
  DomId dom = NewDomain();
  NetFrontend fe(hv_, dom, 0, 0xaa, MakeIpv4(10, 0, 0, 1));
  ASSERT_TRUE(fe.AllocateRings().ok());
  auto vif = devices_.netback().ConnectDevice(DeviceId{dom, DeviceType::kVif, 0}, &fe);
  ASSERT_TRUE(vif.ok());
  EXPECT_TRUE(fe.connected());
  EXPECT_EQ((*vif)->state(), XenbusState::kConnected);

  Bridge bridge;
  ASSERT_TRUE(bridge.Attach(*vif).ok());
  (*vif)->set_attached_switch(&bridge);
  int uplinked = 0;
  bridge.set_uplink_sink([&](const Packet&) { ++uplinked; });

  Packet p;
  p.proto = IpProto::kUdp;
  p.src_ip = fe.ip();
  p.dst_ip = MakeIpv4(10, 0, 0, 99);
  ASSERT_TRUE(fe.Send(p).ok());
  loop_.Run();
  EXPECT_EQ(uplinked, 1);
  EXPECT_EQ(devices_.netback().packets_forwarded(), 1u);
}

TEST_F(DeviceFixture, NetSendRequiresConnection) {
  DomId dom = NewDomain();
  NetFrontend fe(hv_, dom, 0, 0xaa, 1);
  ASSERT_TRUE(fe.AllocateRings().ok());
  Packet p;
  EXPECT_EQ(fe.Send(p).code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeviceFixture, NetReceivePathDeliversToGuest) {
  DomId dom = NewDomain();
  NetFrontend fe(hv_, dom, 0, 0xaa, MakeIpv4(10, 0, 0, 1));
  ASSERT_TRUE(fe.AllocateRings().ok());
  auto vif = devices_.netback().ConnectDevice(DeviceId{dom, DeviceType::kVif, 0}, &fe);
  ASSERT_TRUE(vif.ok());
  std::vector<Packet> got;
  fe.set_receive_handler([&](const Packet& p) { got.push_back(p); });
  Packet p;
  p.proto = IpProto::kUdp;
  p.dst_ip = fe.ip();
  p.dst_port = 7;
  (*vif)->DeliverToGuest(p);
  loop_.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst_port, 7);
}

TEST_F(DeviceFixture, NetRxStaysPendingWhilePaused) {
  DomId dom = NewDomain();
  ASSERT_TRUE(hv_.PauseDomain(dom).ok());
  NetFrontend fe(hv_, dom, 0, 0xaa, 1);
  ASSERT_TRUE(fe.AllocateRings().ok());
  auto vif = devices_.netback().ConnectDevice(DeviceId{dom, DeviceType::kVif, 0}, &fe);
  int got = 0;
  fe.set_receive_handler([&](const Packet&) { ++got; });
  (*vif)->DeliverToGuest(Packet{});
  loop_.Run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(fe.rx_ring().size(), 1u);  // pending — exactly what ring cloning copies
}

TEST_F(DeviceFixture, NetCloneCopiesBothRings) {
  DomId parent = NewDomain();
  DomId child = NewDomain();
  (void)hv_.PauseDomain(parent);
  NetFrontend parent_fe(hv_, parent, 0, 0xaa, MakeIpv4(10, 0, 0, 1));
  ASSERT_TRUE(parent_fe.AllocateRings().ok());
  auto pvif =
      devices_.netback().ConnectDevice(DeviceId{parent, DeviceType::kVif, 0}, &parent_fe);
  ASSERT_TRUE(pvif.ok());
  // Pending state on both rings while the parent is paused (clone point).
  Packet tx;
  tx.proto = IpProto::kUdp;
  ASSERT_TRUE(parent_fe.tx_ring().Push(tx).ok());
  (*pvif)->DeliverToGuest(Packet{});

  NetFrontend child_fe(hv_, child, 0, parent_fe.mac(), parent_fe.ip());
  ASSERT_TRUE(child_fe.AdoptLayoutFrom(parent_fe).ok());
  loop_.Run();  // drain the parent's own connect-time udev event
  int udev_events = 0;
  devices_.SetUdevHandler([&](const UdevEvent&) { ++udev_events; });
  auto cvif = devices_.netback().CloneDevice(DeviceId{parent, DeviceType::kVif, 0},
                                             DeviceId{child, DeviceType::kVif, 0}, &child_fe);
  ASSERT_TRUE(cvif.ok());
  // The Sec. 5.2.1 shortcut: born Connected, same MAC/IP, rings copied.
  EXPECT_EQ((*cvif)->state(), XenbusState::kConnected);
  EXPECT_EQ((*cvif)->mac(), (*pvif)->mac());
  EXPECT_EQ((*cvif)->ip(), (*pvif)->ip());
  EXPECT_EQ(child_fe.tx_ring().size(), 1u);
  EXPECT_EQ(child_fe.rx_ring().size(), 1u);
  loop_.Run();
  EXPECT_EQ(udev_events, 1);  // udev add for the new vif
}

TEST_F(DeviceFixture, NetCloneRequiresParentDevice) {
  NetFrontend fe(hv_, NewDomain(), 0, 0xaa, 1);
  EXPECT_EQ(devices_.netback()
                .CloneDevice(DeviceId{99, DeviceType::kVif, 0}, DeviceId{5, DeviceType::kVif, 0},
                             &fe)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(HostFs, FileLifecycle) {
  HostFs fs;
  ASSERT_TRUE(fs.CreateFile("/a").ok());
  EXPECT_EQ(fs.CreateFile("/a").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(fs.WriteAt("/a", 2, {1, 2, 3}).ok());
  EXPECT_EQ(*fs.SizeOf("/a"), 5u);
  auto data = fs.ReadAt("/a", 2, 10);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_TRUE(fs.Truncate("/a", 1).ok());
  EXPECT_EQ(*fs.SizeOf("/a"), 1u);
  ASSERT_TRUE(fs.Rename("/a", "/b").ok());
  EXPECT_FALSE(fs.Exists("/a"));
  ASSERT_TRUE(fs.Remove("/b").ok());
  EXPECT_EQ(fs.NumFiles(), 0u);
}

TEST(HostFs, ListByPrefix) {
  HostFs fs;
  ASSERT_TRUE(fs.CreateFile("/srv/a").ok());
  ASSERT_TRUE(fs.CreateFile("/srv/b").ok());
  ASSERT_TRUE(fs.CreateFile("/tmp/c").ok());
  EXPECT_EQ(fs.List("/srv").size(), 2u);
  EXPECT_EQ(fs.List("/").size(), 3u);
}

class P9Fixture : public DeviceFixture {
 protected:
  P9Fixture() {
    (void)devices_.hostfs().CreateFile("/export/etc/conf");
    (void)devices_.hostfs().WriteAt("/export/etc/conf", 0, {'h', 'i'});
  }
};

TEST_F(P9Fixture, LaunchAttachWalkOpenRead) {
  DomId dom = NewDomain();
  auto proc = devices_.p9().LaunchForDomain(dom, "/export");
  ASSERT_TRUE(proc.ok());
  auto root = (*proc)->Attach(dom);
  ASSERT_TRUE(root.ok());
  auto fid = (*proc)->Walk(dom, *root, "etc/conf");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE((*proc)->Open(dom, *fid, false).ok());
  auto data = (*proc)->Read(dom, *fid, 0, 16);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (std::vector<std::uint8_t>{'h', 'i'}));
  EXPECT_EQ(*(*proc)->StatSize(dom, *fid), 2u);
  ASSERT_TRUE((*proc)->Clunk(dom, *fid).ok());
}

TEST_F(P9Fixture, CreateWrites) {
  DomId dom = NewDomain();
  auto proc = devices_.p9().LaunchForDomain(dom, "/export");
  auto root = (*proc)->Attach(dom);
  auto fid = (*proc)->Create(dom, *root, "dump.rdb");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE((*proc)->Write(dom, *fid, 0, {9, 9}).ok());
  EXPECT_TRUE(devices_.hostfs().Exists("/export/dump.rdb"));
}

TEST_F(P9Fixture, OpenUnknownPathFails) {
  DomId dom = NewDomain();
  auto proc = devices_.p9().LaunchForDomain(dom, "/export");
  auto root = (*proc)->Attach(dom);
  auto fid = (*proc)->Walk(dom, *root, "missing");
  ASSERT_TRUE(fid.ok());  // walk succeeds lazily, like 9p
  EXPECT_EQ((*proc)->Open(dom, *fid, false).code(), StatusCode::kNotFound);
}

TEST_F(P9Fixture, QmpCloneDuplicatesFidTable) {
  DomId parent = NewDomain();
  DomId child = NewDomain();
  auto proc = devices_.p9().LaunchForDomain(parent, "/export");
  auto root = (*proc)->Attach(parent);
  auto fid = (*proc)->Walk(parent, *root, "etc/conf");
  ASSERT_TRUE((*proc)->Open(parent, *fid, false).ok());
  std::size_t parent_fids = (*proc)->NumFids(parent);

  // One process serves the whole family (design decision of Sec. 5.2.1).
  ASSERT_TRUE(devices_.p9().CloneForChild(parent, child).ok());
  EXPECT_EQ(devices_.p9().NumProcesses(), 1u);
  EXPECT_EQ((*proc)->NumFids(child), parent_fids);
  // The child's cloned fid is immediately usable.
  auto data = (*proc)->Read(child, *fid, 0, 16);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 2u);
}

TEST_F(P9Fixture, FidsAreIsolatedBetweenDomains) {
  DomId parent = NewDomain();
  DomId child = NewDomain();
  auto proc = devices_.p9().LaunchForDomain(parent, "/export");
  auto root = (*proc)->Attach(parent);
  auto fid = (*proc)->Walk(parent, *root, "etc/conf");
  ASSERT_TRUE((*proc)->Open(parent, *fid, false).ok());
  ASSERT_TRUE(devices_.p9().CloneForChild(parent, child).ok());
  // Clunking the child's fid must not touch the parent's.
  ASSERT_TRUE((*proc)->Clunk(child, *fid).ok());
  EXPECT_TRUE((*proc)->Read(parent, *fid, 0, 1).ok());
  EXPECT_EQ((*proc)->Read(child, *fid, 0, 1).status().code(), StatusCode::kNotFound);
}

TEST_F(P9Fixture, CloneForUnservedParentFails) {
  EXPECT_EQ(devices_.p9().CloneForChild(77, 78).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace nephele
