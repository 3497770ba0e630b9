// Tests for live migration between hosts (two independent NepheleSystems),
// including the Sec. 8 constraint that clone-family members cannot migrate
// (it would break the page-sharing potential).

#include <gtest/gtest.h>

#include "src/apps/redis_app.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"

namespace nephele {
namespace {

SystemConfig HostConfig() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 64 * 1024;
  return cfg;
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : source_(HostConfig()), target_(HostConfig()), src_guests_(source_),
        dst_guests_(target_) {}

  DomainConfig Guest(const std::string& name) {
    DomainConfig cfg;
    cfg.name = name;
    cfg.memory_mb = 4;
    cfg.max_clones = 8;
    return cfg;
  }

  NepheleSystem source_;
  NepheleSystem target_;
  GuestManager src_guests_;
  GuestManager dst_guests_;
};

TEST_F(MigrationTest, PageContentsSurviveMigration) {
  auto dom = src_guests_.Launch(Guest("mig"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  ASSERT_TRUE(dom.ok());
  source_.Settle();
  GuestMemoryLayout layout = ComputeGuestLayout(Guest("mig"), 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  const char payload[] = "travels-with-me";
  ASSERT_TRUE(source_.hypervisor().WriteGuestPage(*dom, gfn, 16, payload, sizeof(payload)).ok());

  auto new_dom = src_guests_.MigrateTo(dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok()) << new_dom.status().ToString();
  target_.Settle();

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
  source_.Settle();
  auto* redis = dynamic_cast<RedisApp*>(src_guests_.AppOf(*dom));
  ASSERT_TRUE(redis->Set(*src_guests_.ContextOf(*dom), "city", "rome").ok());

  auto new_dom = src_guests_.MigrateTo(dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok());
  target_.Settle();
  auto* migrated = dynamic_cast<RedisApp*>(dst_guests_.AppOf(*new_dom));
  ASSERT_NE(migrated, nullptr);
  EXPECT_EQ(*migrated->Get("city"), "rome");
}

TEST_F(MigrationTest, MigratedGuestStillServes) {
  auto dom = src_guests_.Launch(Guest("srv"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  auto new_dom = src_guests_.MigrateTo(dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok());
  target_.Settle();

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
  target_.Settle();
  ASSERT_EQ(uplink.size(), 1u);
  EXPECT_EQ(uplink[0].dst_port, 777);  // the echo
}

TEST_F(MigrationTest, FamilyMembersRefuseToMigrate) {
  auto dom = src_guests_.Launch(Guest("fam"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  ASSERT_TRUE(src_guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
  source_.Settle();
  DomId child = source_.hypervisor().FindDomain(*dom)->children.front();

  // Neither the parent (has children) nor the clone (has a parent) may move.
  EXPECT_EQ(src_guests_.MigrateTo(dst_guests_, *dom).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(src_guests_.MigrateTo(dst_guests_, child).status().code(),
            StatusCode::kFailedPrecondition);
  // Both still alive on the source.
  EXPECT_TRUE(src_guests_.Alive(*dom));
  EXPECT_TRUE(src_guests_.Alive(child));
}

TEST_F(MigrationTest, MigratedGuestCanCloneOnTarget) {
  auto dom = src_guests_.Launch(Guest("mover"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  auto new_dom = src_guests_.MigrateTo(dst_guests_, *dom);
  ASSERT_TRUE(new_dom.ok());
  target_.Settle();
  // Cloning works on the new host (config, including max_clones, migrated).
  ASSERT_TRUE(dst_guests_.ContextOf(*new_dom)->Fork(1, nullptr).ok());
  target_.Settle();
  EXPECT_EQ(target_.hypervisor().FindDomain(*new_dom)->children.size(), 1u);
}

TEST_F(MigrationTest, SourcePoolFullyReclaimed) {
  std::size_t free_before = source_.hypervisor().FreePoolFrames();
  auto dom = src_guests_.Launch(Guest("tmp"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  ASSERT_TRUE(src_guests_.MigrateTo(dst_guests_, *dom).ok());
  EXPECT_EQ(source_.hypervisor().FreePoolFrames(), free_before);
}

TEST_F(MigrationTest, RefusedImmigrationLeavesTheSourceRunning) {
  DomainConfig cfg = Guest("redis-stays");
  cfg.memory_mb = 16;
  auto dom = src_guests_.Launch(cfg, std::make_unique<RedisApp>(RedisConfig{}));
  ASSERT_TRUE(dom.ok());
  source_.Settle();
  ASSERT_TRUE(dynamic_cast<RedisApp*>(src_guests_.AppOf(*dom))
                  ->Set(*src_guests_.ContextOf(*dom), "city", "rome")
                  .ok());
  const std::size_t free_before = source_.hypervisor().FreePoolFrames();

  // The target runs out of frames while rebuilding the guest's memory.
  ASSERT_TRUE(target_.fault_injector().Arm("hypervisor/frame_alloc", FaultSpec::NthHit(1)).ok());
  EXPECT_FALSE(src_guests_.MigrateTo(dst_guests_, *dom).ok());
  target_.fault_injector().DisarmAll();
  source_.Settle();

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
  EXPECT_EQ(src_guests_.MigrateTo(dst_guests_, 404).status().code(), StatusCode::kNotFound);
}


TEST_F(MigrationTest, DirtyLoggingTracksWrites) {
  auto dom = src_guests_.Launch(Guest("dl"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  Hypervisor& hv = source_.hypervisor();
  EXPECT_EQ(hv.FetchAndResetDirtyLog(*dom).status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(hv.SetDirtyLogging(*dom, true).ok());
  GuestMemoryLayout layout = ComputeGuestLayout(Guest("dl"), 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  char b = 1;
  ASSERT_TRUE(hv.WriteGuestPage(*dom, gfn, 0, &b, 1).ok());
  ASSERT_TRUE(hv.WriteGuestPage(*dom, gfn, 8, &b, 1).ok());      // same page: one entry
  ASSERT_TRUE(hv.WriteGuestPage(*dom, gfn + 3, 0, &b, 1).ok());
  auto dirty = hv.FetchAndResetDirtyLog(*dom);
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(*dirty, (std::vector<Gfn>{gfn, gfn + 3}));
  // Fetch resets the log.
  EXPECT_TRUE(hv.FetchAndResetDirtyLog(*dom)->empty());
  ASSERT_TRUE(hv.SetDirtyLogging(*dom, false).ok());
}

TEST_F(MigrationTest, LiveMigrationConvergesAndCarriesLatestData) {
  auto dom = src_guests_.Launch(Guest("live"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  GuestMemoryLayout layout = ComputeGuestLayout(Guest("live"), 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  std::uint32_t version = 0;
  ASSERT_TRUE(source_.hypervisor().WriteGuestPage(*dom, gfn, 0, &version, 4).ok());

  // The "running guest" bumps a counter between pre-copy rounds.
  int activity_rounds = 0;
  auto between = [&] {
    if (activity_rounds++ < 2) {
      ++version;
      (void)source_.hypervisor().WriteGuestPage(*dom, gfn, 0, &version, 4);
    }
  };
  Toolstack::LiveMigrationStats stats;
  auto stream =
      source_.toolstack().MigrateOutLive(*dom, /*max_rounds=*/8, between, &stats);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  // Round 0 + rounds for the two dirtying bursts.
  EXPECT_GE(stats.precopy_rounds, 2u);
  EXPECT_GT(stats.pages_shipped, 1024u);  // full sweep + re-shipped pages
  // Downtime is tiny compared to the full-copy time (nothing left dirty).
  EXPECT_LT(stats.downtime.ToMillis(), 15.0);

  auto new_dom = target_.toolstack().MigrateIn(*stream);
  ASSERT_TRUE(new_dom.ok());
  ASSERT_TRUE(source_.toolstack().CompleteMigrateOut(*dom).ok());
  EXPECT_EQ(source_.hypervisor().FindDomain(*dom), nullptr);
  std::uint32_t got = 0;
  ASSERT_TRUE(target_.hypervisor().ReadGuestPage(*new_dom, gfn, 0, &got, 4).ok());
  EXPECT_EQ(got, version);  // the LAST version travelled
}

TEST_F(MigrationTest, LiveMigrationRefusedImmigrationLeavesSourceRunning) {
  auto dom =
      src_guests_.Launch(Guest("live-stays"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  GuestMemoryLayout layout = ComputeGuestLayout(Guest("live-stays"), 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  std::uint32_t version = 0;
  ASSERT_TRUE(source_.hypervisor().WriteGuestPage(*dom, gfn, 0, &version, 4).ok());
  const std::size_t free_before = source_.hypervisor().FreePoolFrames();

  auto between = [&] {
    ++version;
    (void)source_.hypervisor().WriteGuestPage(*dom, gfn, 0, &version, 4);
  };
  Toolstack::LiveMigrationStats stats;
  auto stream = source_.toolstack().MigrateOutLive(*dom, /*max_rounds=*/3, between, &stats);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  // The paused source waits for Complete or Abort; a second emigration is
  // refused meanwhile.
  EXPECT_EQ(source_.toolstack().MigrateOutLive(*dom, 3, nullptr, &stats).status().code(),
            StatusCode::kFailedPrecondition);

  // The target runs out of frames while rebuilding the guest's memory.
  ASSERT_TRUE(target_.fault_injector().Arm("hypervisor/frame_alloc", FaultSpec::NthHit(1)).ok());
  EXPECT_FALSE(target_.toolstack().MigrateIn(*stream).ok());
  target_.fault_injector().DisarmAll();
  ASSERT_TRUE(source_.toolstack().AbortMigrateOut(*dom).ok());
  source_.Settle();

  // The guest never left: running, latest data in place, pool untouched.
  const Domain* d = source_.hypervisor().FindDomain(*dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  std::uint32_t got = 0;
  ASSERT_TRUE(source_.hypervisor().ReadGuestPage(*dom, gfn, 0, &got, 4).ok());
  EXPECT_EQ(got, version);
  EXPECT_EQ(source_.hypervisor().FreePoolFrames(), free_before);
}

TEST_F(MigrationTest, LiveMigrationRefusesFamilies) {
  auto dom = src_guests_.Launch(Guest("fam2"), std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  source_.Settle();
  ASSERT_TRUE(src_guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
  source_.Settle();
  Toolstack::LiveMigrationStats stats;
  EXPECT_EQ(source_.toolstack().MigrateOutLive(*dom, 4, nullptr, &stats).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nephele
