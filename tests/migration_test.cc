// Tests for moving guests between the two hosts of one ClusterFabric with
// GuestManager::MigrateTo (app state, link charge, clock hand-off, refusal
// of hosts outside the fabric), the Sec. 8 constraint that clone-family
// members cannot migrate (it would break the page-sharing potential), and
// the one toolstack boot body: immigration and restore rebuild every device
// type the way xl create builds it.

#include <gtest/gtest.h>

#include "src/apps/redis_app.h"
#include "src/apps/udp_ready_app.h"
#include "src/core/fabric.h"
#include "src/guest/guest_manager.h"
#include "src/xenstore/path.h"

namespace nephele {
namespace {

SystemConfig HostConfig() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 64 * 1024;
  return cfg;
}

ClusterConfig TwoHosts() {
  ClusterConfig cfg;
  cfg.hosts = 2;
  cfg.host = HostConfig();
  return cfg;
}

// What xl create leaves for a guest with every device type: a running
// domain with a console, connected frontend/backend Xenstore states, a
// hotplugged vif, a 9pfs backend process serving it and a vbd disk.
void ExpectBuiltLikeCreate(Host& host, DomId dom) {
  const Domain* d = host.hypervisor().FindDomain(dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  EXPECT_TRUE(host.devices().console().HasConsole(dom));
  XenstoreDaemon& xs = host.xenstore();
  const std::string connected = XenbusStateValue(XenbusState::kConnected);
  for (const char* type : {"vif", "9pfs", "vbd"}) {
    EXPECT_EQ(xs.Read(XsFrontendPath(dom, type, 0) + "/state").value_or(""), connected)
        << type;
    EXPECT_EQ(xs.Read(XsBackendPath(kDom0, type, dom, 0) + "/state").value_or(""), connected)
        << type;
  }
  EXPECT_EQ(xs.Read(XsBackendPath(kDom0, "vif", dom, 0) + "/hotplug-status").value_or(""),
            "connected");
  GuestDevices* gd = host.toolstack().FindDevices(dom);
  ASSERT_NE(gd, nullptr);
  ASSERT_NE(gd->net, nullptr);
  EXPECT_TRUE(gd->net->connected());
  ASSERT_NE(gd->p9, nullptr);
  EXPECT_TRUE(gd->p9->ServesDomain(dom));
  ASSERT_NE(gd->vbd, nullptr);
  EXPECT_TRUE(host.devices().vbd().HasDisk(DeviceId{dom, DeviceType::kVbd, 0}));
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : fabric_(TwoHosts()), source_(fabric_.host(0)), target_(fabric_.host(1)),
        src_guests_(source_), dst_guests_(target_) {}

  DomainConfig Guest(const std::string& name) {
    DomainConfig cfg;
    cfg.name = name;
    cfg.memory_mb = 4;
    cfg.max_clones = 8;
    return cfg;
  }

  DomainConfig EveryDevice(const std::string& name) {
    DomainConfig cfg = Guest(name);
    cfg.with_p9fs = true;
    cfg.with_vbd = true;
    return cfg;
  }

  std::uint64_t FabricCount(std::string_view name) const {
    return fabric_.metrics().CounterValue(name);
  }

  ClusterFabric fabric_;
  Host& source_;
  Host& target_;
  GuestManager src_guests_;
  GuestManager dst_guests_;
};

TEST_F(MigrationTest, PageContentsSurviveMigration) {
  auto dom = src_guests_.Launch(Guest("mig"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  fabric_.Settle();
  GuestMemoryLayout layout = ComputeGuestLayout(Guest("mig"));
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  const char payload[] = "travels-with-me";
  ASSERT_TRUE(source_.hypervisor().WriteGuestPage(*dom, gfn, 16, payload, sizeof(payload)).ok());

  auto new_dom = src_guests_.MigrateTo(fabric_, dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok()) << new_dom.status().ToString();
  fabric_.Settle();

  // Source domain gone; target domain running with identical contents.
  EXPECT_EQ(source_.hypervisor().FindDomain(*dom), nullptr);
  EXPECT_FALSE(src_guests_.Alive(*dom));
  const Domain* d = target_.hypervisor().FindDomain(*new_dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  EXPECT_EQ(d->tot_pages(), 1024u);
  char out[sizeof(payload)] = {};
  ASSERT_TRUE(
      target_.hypervisor().ReadGuestPage(*new_dom, gfn, 16, out, sizeof(payload)).ok());
  EXPECT_STREQ(out, "travels-with-me");
}

TEST_F(MigrationTest, AppStateTravels) {
  DomainConfig cfg = Guest("redis-mig");
  cfg.memory_mb = 16;
  auto dom = src_guests_.Launch(cfg, std::make_unique<RedisApp>(RedisConfig{}));
  ASSERT_TRUE(dom.ok());
  fabric_.Settle();
  auto* redis = dynamic_cast<RedisApp*>(src_guests_.AppOf(*dom));
  ASSERT_TRUE(redis->Set(*src_guests_.ContextOf(*dom), "city", "rome").ok());

  auto new_dom = src_guests_.MigrateTo(fabric_, dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok());
  fabric_.Settle();
  auto* migrated = dynamic_cast<RedisApp*>(dst_guests_.AppOf(*new_dom));
  ASSERT_NE(migrated, nullptr);
  EXPECT_EQ(*migrated->Get("city"), "rome");
}

TEST_F(MigrationTest, MigratedGuestStillServes) {
  auto dom = src_guests_.Launch(Guest("srv"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  fabric_.Settle();
  auto new_dom = src_guests_.MigrateTo(fabric_, dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok());
  fabric_.Settle();

  // Packets on the TARGET host reach the migrated guest.
  std::vector<Packet> uplink;
  target_.toolstack().default_switch()->set_uplink_sink(
      [&](const Packet& p) { uplink.push_back(p); });
  GuestDevices* gd = target_.toolstack().FindDevices(*new_dom);
  Packet probe;
  probe.proto = IpProto::kUdp;
  probe.src_ip = MakeIpv4(10, 8, 255, 1);
  probe.src_port = 777;
  probe.dst_ip = gd->net->ip();
  probe.dst_port = 7;  // the UDP binding migrated with the stack state
  target_.toolstack().default_switch()->InjectFromUplink(probe);
  fabric_.Settle();
  ASSERT_EQ(uplink.size(), 1u);
  EXPECT_EQ(uplink[0].dst_port, 777);  // the echo
}

TEST_F(MigrationTest, FamilyMembersRefuseToMigrate) {
  auto dom = src_guests_.Launch(Guest("fam"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  fabric_.Settle();
  ASSERT_TRUE(src_guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
  fabric_.Settle();
  DomId child = source_.hypervisor().FindDomain(*dom)->children.front();

  // Neither the parent (has children) nor the clone (has a parent) may move.
  EXPECT_EQ(src_guests_.MigrateTo(fabric_, dst_guests_, *dom).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(src_guests_.MigrateTo(fabric_, dst_guests_, child).status().code(),
            StatusCode::kFailedPrecondition);
  // Both still alive on the source.
  EXPECT_TRUE(src_guests_.Alive(*dom));
  EXPECT_TRUE(src_guests_.Alive(child));
}

TEST_F(MigrationTest, MigratedGuestCanCloneOnTarget) {
  auto dom = src_guests_.Launch(Guest("mover"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  fabric_.Settle();
  auto new_dom = src_guests_.MigrateTo(fabric_, dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok());
  fabric_.Settle();
  // Cloning works on the new host (config, including max_clones, migrated).
  ASSERT_TRUE(dst_guests_.ContextOf(*new_dom)->Fork(1, nullptr).ok());
  fabric_.Settle();
  EXPECT_EQ(target_.hypervisor().FindDomain(*new_dom)->children.size(), 1u);
}

// A direct fabric migration, not MigrateTo: the source's teardown alone ends
// the source guest, app included.
TEST_F(MigrationTest, DirectFabricMigrateEndsTheSourceGuest) {
  auto dom = src_guests_.Launch(Guest("direct"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  fabric_.Settle();
  ASSERT_TRUE(src_guests_.Alive(*dom));

  auto moved = fabric_.Migrate(*dom, 0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_FALSE(src_guests_.Alive(*dom));
  EXPECT_EQ(src_guests_.NumGuests(), 0u);
  EXPECT_EQ(src_guests_.AppOf(*dom), nullptr);
  EXPECT_EQ(src_guests_.ContextOf(*dom), nullptr);
  fabric_.Settle();
  EXPECT_EQ(source_.hypervisor().FindDomain(*dom), nullptr);
}

TEST_F(MigrationTest, SourcePoolFullyReclaimed) {
  std::size_t free_before = source_.hypervisor().FreePoolFrames();
  auto dom = src_guests_.Launch(Guest("tmp"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  fabric_.Settle();
  ASSERT_TRUE(src_guests_.MigrateTo(fabric_, dst_guests_, *dom).ok());
  EXPECT_EQ(source_.hypervisor().FreePoolFrames(), free_before);
}

TEST_F(MigrationTest, RefusedImmigrationLeavesTheSourceRunning) {
  DomainConfig cfg = Guest("redis-stays");
  cfg.memory_mb = 16;
  auto dom = src_guests_.Launch(cfg, std::make_unique<RedisApp>(RedisConfig{}));
  ASSERT_TRUE(dom.ok());
  fabric_.Settle();
  ASSERT_TRUE(dynamic_cast<RedisApp*>(src_guests_.AppOf(*dom))
                  ->Set(*src_guests_.ContextOf(*dom), "city", "rome")
                  .ok());
  const std::size_t free_before = source_.hypervisor().FreePoolFrames();

  // The target runs out of frames while rebuilding the guest's memory.
  ASSERT_TRUE(target_.fault_injector().Arm("hypervisor/frame_alloc", FaultSpec::NthHit(1)).ok());
  EXPECT_FALSE(src_guests_.MigrateTo(fabric_, dst_guests_, *dom).ok());
  target_.fault_injector().DisarmAll();
  fabric_.Settle();

  // The guest never left: still running, app state intact, pool untouched.
  ASSERT_TRUE(src_guests_.Alive(*dom));
  const Domain* d = source_.hypervisor().FindDomain(*dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  auto* redis = dynamic_cast<RedisApp*>(src_guests_.AppOf(*dom));
  ASSERT_NE(redis, nullptr);
  EXPECT_EQ(*redis->Get("city"), "rome");
  EXPECT_EQ(source_.hypervisor().FreePoolFrames(), free_before);
}

TEST_F(MigrationTest, UnknownGuestRejected) {
  EXPECT_EQ(src_guests_.MigrateTo(fabric_, dst_guests_, 404).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MigrationTest, MigrateToRidesTheFabric) {
  auto dom = src_guests_.Launch(Guest("rider"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  fabric_.Settle();
  // Another boot runs the source's clock ahead of the idle target's.
  ASSERT_TRUE(source_.toolstack().CreateDomain(Guest("busy")).ok());
  const SimTime hop_start = source_.Now();
  ASSERT_LT(target_.Now(), hop_start);

  auto new_dom = src_guests_.MigrateTo(fabric_, dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok()) << new_dom.status().ToString();
  EXPECT_GT(FabricCount("fabric/link_tx_bytes"), 0u);
  EXPECT_EQ(FabricCount("fabric/migrations_total"), 1u);
  EXPECT_EQ(FabricCount("fabric/migrations_failed"), 0u);
  // The target rebuilt the guest only after the source shipped it, so its
  // clock is not behind the source's.
  EXPECT_GT(target_.Now(), hop_start);
  EXPECT_TRUE(dst_guests_.Alive(*new_dom));
}

TEST_F(MigrationTest, HostsOutsideTheFabricAreRefused) {
  // Its host has index 0 like the fabric's source host, but is not the
  // fabric's.
  NepheleSystem stranger(HostConfig());
  GuestManager stranger_guests(stranger);
  auto dom = src_guests_.Launch(Guest("home"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  auto far = stranger_guests.Launch(Guest("far"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  ASSERT_TRUE(far.ok());
  fabric_.Settle();
  stranger.Settle();

  EXPECT_EQ(src_guests_.MigrateTo(fabric_, stranger_guests, *dom).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stranger_guests.MigrateTo(fabric_, dst_guests_, *far).status().code(),
            StatusCode::kInvalidArgument);

  // Nothing moved: both guests still run where they were, nothing shipped.
  EXPECT_TRUE(src_guests_.Alive(*dom));
  EXPECT_EQ(source_.hypervisor().FindDomain(*dom)->state, DomainState::kRunning);
  EXPECT_TRUE(stranger_guests.Alive(*far));
  EXPECT_EQ(stranger.hypervisor().FindDomain(*far)->state, DomainState::kRunning);
  EXPECT_EQ(stranger_guests.NumGuests(), 1u);
  EXPECT_EQ(dst_guests_.NumGuests(), 0u);
  EXPECT_EQ(FabricCount("fabric/migrations_total"), 0u);
  EXPECT_EQ(FabricCount("fabric/link_tx_bytes"), 0u);
}

TEST_F(MigrationTest, ImmigrationRebuildsEveryDeviceType) {
  auto dom = source_.toolstack().CreateDomain(EveryDevice("moved"));
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  ExpectBuiltLikeCreate(source_, *dom);

  auto moved = fabric_.Migrate(*dom, 0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  fabric_.Settle();
  EXPECT_EQ(source_.hypervisor().FindDomain(*dom), nullptr);
  ExpectBuiltLikeCreate(target_, *moved);
}

TEST_F(MigrationTest, RestoreRebuildsEveryDeviceType) {
  auto dom = source_.toolstack().CreateDomain(EveryDevice("restored"));
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  auto image = source_.toolstack().SaveDomain(*dom);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(source_.toolstack().DestroyDomain(*dom).ok());

  auto restored = source_.toolstack().RestoreDomain(*image);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  fabric_.Settle();
  ExpectBuiltLikeCreate(source_, *restored);
}


}  // namespace
}  // namespace nephele
