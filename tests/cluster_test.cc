// Fabric-level coverage: the Host/ClusterFabric redesign (DESIGN.md §15).
// Image replication to peers, first-class cross-host migration with typed
// errors and clean rollback under link faults/partitions (frame conservation
// asserted on both hosts via src/hypervisor/invariants.h), spread placement
// (balance, warm hosts first, lowest-index ties, slots freed by any
// destroy), cross-host warm pools, a standalone host against a fabric peer, per-host clocks and their
// hand-offs (parallel waves, grant timestamps, migration into a busy host,
// no dead timers), and byte-determinism of the merged cluster exports
// across reruns and clone worker counts.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fabric.h"
#include "src/core/system.h"
#include "src/hypervisor/invariants.h"
#include "src/obs/clone_observer.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/cluster_scheduler.h"

namespace nephele {
namespace {

ClusterConfig SmallCluster(std::size_t hosts) {
  ClusterConfig cfg;
  cfg.hosts = hosts;
  cfg.host.hypervisor.pool_frames = 64 * 1024;  // 256 MiB pool per host
  return cfg;
}

DomainConfig GuestConfig(const std::string& name, std::uint32_t max_clones = 64) {
  DomainConfig cfg;
  cfg.name = name;
  cfg.memory_mb = 4;
  cfg.max_clones = max_clones;
  return cfg;
}

DomId Boot(Host& host, const DomainConfig& cfg) {
  auto dom = host.toolstack().CreateDomain(cfg);
  EXPECT_TRUE(dom.ok()) << dom.status().ToString();
  host.Settle();
  return *dom;
}

void ExpectClean(ClusterFabric& fabric) {
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    EXPECT_EQ(CheckHypervisorInvariants(fabric.host(i).hypervisor()), "")
        << "host " << i;
  }
}

// ---------------------------------------------------------------------------
// A single host is a Host
// ---------------------------------------------------------------------------

struct HostRun {
  std::string metrics;
  std::string trace;
  SimTime now;
};

// One boot -> clone -> destroy scenario on `host`, read back through the
// host's own exports and clock.
HostRun BootCloneDestroy(Host& host) {
  DomainConfig cfg = GuestConfig("solo");
  cfg.with_vif = true;
  DomId parent = Boot(host, cfg);
  const Domain* p = host.hypervisor().FindDomain(parent);
  auto children =
      host.clone_engine().Clone({parent, parent, p->p2m[p->start_info_gfn].mfn, 2});
  EXPECT_TRUE(children.ok()) << children.status().ToString();
  host.Settle();
  for (DomId child : *children) {
    EXPECT_TRUE(host.toolstack().DestroyDomain(child).ok());
  }
  EXPECT_TRUE(host.toolstack().DestroyDomain(parent).ok());
  host.Settle();
  return {host.metrics().ExportJson(), host.trace().ExportJson(), host.Now()};
}

TEST(SingleHostTest, StandaloneHostEqualsHostZeroOfAOneHostFabric) {
  const ClusterConfig cfg = SmallCluster(1);
  Host alone(cfg.host);
  ClusterFabric fabric(cfg);
  EXPECT_EQ(alone.index(), 0u);
  EXPECT_EQ(alone.metrics_prefix(), fabric.host(0).metrics_prefix());

  const HostRun solo = BootCloneDestroy(alone);
  const HostRun peer = BootCloneDestroy(fabric.host(0));
  EXPECT_GT(solo.now, SimTime());
  EXPECT_EQ(solo.metrics, peer.metrics);
  EXPECT_EQ(solo.trace, peer.trace);
  EXPECT_EQ(solo.now, peer.now);
}

TEST(ClusterFacadeTest, MergedExportOfOneUnprefixedPartEqualsPlainExport) {
  NepheleSystem sys;
  (void)Boot(sys, GuestConfig("export"));
  EXPECT_EQ(ExportMergedJson({{"", &sys.metrics()}}), sys.metrics().ExportJson());
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

TEST(ClusterMigrateTest, MovesDomainBetweenHosts) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("mover", /*max_clones=*/0));
  const std::size_t dst_before = fabric.host(1).hypervisor().NumDomains();

  auto moved = fabric.Migrate(dom, 0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  fabric.Settle();

  EXPECT_EQ(fabric.host(0).hypervisor().FindDomain(dom), nullptr);
  const Domain* d = fabric.host(1).hypervisor().FindDomain(*moved);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  EXPECT_EQ(fabric.host(1).hypervisor().NumDomains(), dst_before + 1);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_total"), 1u);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_failed"), 0u);
  EXPECT_GT(fabric.metrics().CounterValue("fabric/link_tx_bytes"), 0u);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, TypedErrors) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("typed", /*max_clones=*/0));

  EXPECT_EQ(fabric.Migrate(dom, 0, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.Migrate(dom, 0, 7).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.Migrate(DomId{9999}, 0, 1).status().code(), StatusCode::kNotFound);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, FamilyLinkedDomainIsRefusedNamingRelatives) {
  ClusterFabric fabric(SmallCluster(2));
  Host& host = fabric.host(0);
  DomId parent = Boot(host, GuestConfig("ancestor"));
  const Domain* pd = host.hypervisor().FindDomain(parent);
  auto children = host.clone_engine().Clone(
      {kDom0, parent, pd->p2m[pd->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok());
  fabric.Settle();

  auto refused = fabric.Migrate(parent, 0, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  const std::string msg(refused.status().message());
  EXPECT_NE(msg.find("ancestor"), std::string::npos) << msg;
  EXPECT_NE(msg.find("domid " + std::to_string(children->front())), std::string::npos) << msg;

  // The refused migration must not have touched the family.
  EXPECT_NE(host.hypervisor().FindDomain(parent), nullptr);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_failed"), 1u);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, BeginAbortRestoresTheSource) {
  ClusterFabric fabric(SmallCluster(2));
  Host& host = fabric.host(0);
  DomId dom = Boot(host, GuestConfig("abortee", /*max_clones=*/0));

  auto stream = host.toolstack().BeginMigrateOut(dom);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(host.hypervisor().FindDomain(dom)->state, DomainState::kPaused);
  // A second Begin while one is pending is refused.
  EXPECT_EQ(host.toolstack().BeginMigrateOut(dom).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(host.toolstack().AbortMigrateOut(dom).ok());
  EXPECT_EQ(host.hypervisor().FindDomain(dom)->state, DomainState::kRunning);
  // Nothing pending anymore: Complete/Abort without Begin are typed errors.
  EXPECT_EQ(host.toolstack().CompleteMigrateOut(dom).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(host.toolstack().AbortMigrateOut(dom).code(), StatusCode::kFailedPrecondition);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, LinkFaultMidMigrationRollsBackCleanly) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("survivor", /*max_clones=*/0));
  const std::size_t src_domains = fabric.host(0).hypervisor().NumDomains();
  const std::size_t dst_domains = fabric.host(1).hypervisor().NumDomains();
  const std::size_t src_free = fabric.host(0).hypervisor().FreePoolFrames();
  const std::size_t dst_free = fabric.host(1).hypervisor().FreePoolFrames();

  ASSERT_TRUE(fabric.fault_injector().Arm("fabric/link", FaultSpec::NthHit(1)).ok());
  auto failed = fabric.Migrate(dom, 0, 1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);

  // The source is back to running, the destination untouched, and frame
  // conservation holds on both hosts.
  const Domain* d = fabric.host(0).hypervisor().FindDomain(dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  EXPECT_EQ(fabric.host(0).hypervisor().NumDomains(), src_domains);
  EXPECT_EQ(fabric.host(1).hypervisor().NumDomains(), dst_domains);
  EXPECT_EQ(fabric.host(0).hypervisor().FreePoolFrames(), src_free);
  EXPECT_EQ(fabric.host(1).hypervisor().FreePoolFrames(), dst_free);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_failed"), 1u);
  ExpectClean(fabric);

  // With the fault disarmed the same migration goes through.
  fabric.fault_injector().DisarmAll();
  auto moved = fabric.Migrate(dom, 0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  fabric.Settle();
  EXPECT_NE(fabric.host(1).hypervisor().FindDomain(*moved), nullptr);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, MigrateFaultPointRollsBackToo) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("poked", /*max_clones=*/0));
  ASSERT_TRUE(fabric.fault_injector().Arm("fabric/migrate", FaultSpec::NthHit(1)).ok());

  auto failed = fabric.Migrate(dom, 0, 1);
  ASSERT_FALSE(failed.ok());
  const Domain* d = fabric.host(0).hypervisor().FindDomain(dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, PartitionBlocksThenRecovers) {
  ClusterFabric fabric(SmallCluster(3));
  DomId dom = Boot(fabric.host(0), GuestConfig("islander", /*max_clones=*/0));

  ASSERT_TRUE(fabric.Partition(1, true).ok());
  auto blocked = fabric.Migrate(dom, 0, 1);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fabric.host(0).hypervisor().FindDomain(dom)->state, DomainState::kRunning);
  EXPECT_GT(fabric.metrics().CounterValue("fabric/link_down_drops"), 0u);
  ExpectClean(fabric);

  // The partition only cut host 1: host 2 is still reachable.
  auto sideways = fabric.Migrate(dom, 0, 2);
  ASSERT_TRUE(sideways.ok()) << sideways.status().ToString();
  fabric.Settle();

  ASSERT_TRUE(fabric.Partition(1, false).ok());
  auto moved = fabric.Migrate(*sideways, 2, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  fabric.Settle();
  EXPECT_NE(fabric.host(1).hypervisor().FindDomain(*moved), nullptr);
  ExpectClean(fabric);
}

// ---------------------------------------------------------------------------
// Replication + placement
// ---------------------------------------------------------------------------

TEST(ClusterSchedulerTest, RegisterParentReplicatesToEveryPeer) {
  ClusterFabric fabric(SmallCluster(3));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));

  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  fabric.Settle();

  EXPECT_EQ(sched.replica(*family, 0), parent);
  for (std::size_t host = 1; host < 3; ++host) {
    DomId replica = sched.replica(*family, host);
    ASSERT_NE(replica, kDomInvalid) << "host " << host;
    const Domain* d = fabric.host(host).hypervisor().FindDomain(replica);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name, "fn");
    EXPECT_TRUE(d->cloning_enabled);
  }
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/replications_total"), 2u);
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/replicas_created"), 2u);
  ExpectClean(fabric);
}

TEST(ClusterSchedulerTest, ReplicationFailureLeavesPeerIneligible) {
  ClusterFabric fabric(SmallCluster(3));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));

  ASSERT_TRUE(fabric.SetLinkDown(0, 2, true).ok());
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  fabric.Settle();
  EXPECT_EQ(sched.replica(*family, 2), kDomInvalid);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/replications_failed"), 1u);

  // Placement routes around the replica-less host.
  std::vector<ClusterGrant> grants;
  ASSERT_TRUE(sched.Acquire(*family, 4, [&grants](Result<ClusterGrant> r) {
                     ASSERT_TRUE(r.ok()) << r.status().ToString();
                     grants.push_back(*r);
                   })
                  .ok());
  fabric.Settle();
  ASSERT_EQ(grants.size(), 4u);
  EXPECT_EQ(sched.active_on(2), 0u);
  ExpectClean(fabric);
}

// Runs one Acquire wave of `children` on a fresh 3-host fabric and returns
// the per-host active counts.
std::vector<std::size_t> PlaceWave(unsigned children) {
  ClusterFabric fabric(SmallCluster(3));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  EXPECT_TRUE(family.ok());
  fabric.Settle();

  unsigned granted = 0;
  EXPECT_TRUE(sched.Acquire(*family, children, [&granted](Result<ClusterGrant> r) {
                     EXPECT_TRUE(r.ok()) << r.status().ToString();
                     ++granted;
                   })
                  .ok());
  fabric.Settle();
  EXPECT_EQ(granted, children);
  ExpectClean(fabric);
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    active.push_back(sched.active_on(i));
  }
  return active;
}

TEST(ClusterSchedulerTest, SpreadPlacementBalancesHosts) {
  EXPECT_EQ(PlaceWave(6), (std::vector<std::size_t>{2, 2, 2}));
}

// Grants of `n` children of `family`, in delivery order.
std::vector<ClusterGrant> AcquireGrants(ClusterFabric& fabric, ClusterScheduler& sched,
                                        std::size_t family, unsigned n) {
  std::vector<ClusterGrant> grants;
  EXPECT_TRUE(sched.Acquire(family, n, [&grants](Result<ClusterGrant> r) {
                     ASSERT_TRUE(r.ok()) << r.status().ToString();
                     grants.push_back(*r);
                   })
                  .ok());
  fabric.Settle();
  EXPECT_EQ(grants.size(), n);
  return grants;
}

// A warm host wins over a cold host with fewer active children; with no
// warm host, the tie between the least loaded goes to the lowest index.
TEST(ClusterSchedulerTest, SpreadServesAWarmHostBeforeAnEmptierColdOne) {
  ClusterFabric fabric(SmallCluster(3));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  fabric.Settle();

  // Two children per host; hosts 1 and 2 then release theirs and drain
  // their pools, so they end idle and cold.
  std::vector<ClusterGrant> on_host0;
  for (const ClusterGrant& g : AcquireGrants(fabric, sched, *family, 6)) {
    if (g.host == 0) {
      on_host0.push_back(g);
    } else {
      ASSERT_TRUE(sched.Release(g).ok());
    }
  }
  sched.host_scheduler(1).DrainAll();
  sched.host_scheduler(2).DrainAll();
  fabric.Settle();
  ASSERT_EQ(on_host0.size(), 2u);
  ASSERT_EQ(sched.active_on(1), 0u);
  ASSERT_EQ(sched.active_on(2), 0u);

  // Host 0 parks one child: warm, with one active child left.
  ASSERT_TRUE(sched.Release(on_host0[0]).ok());
  fabric.Settle();
  ASSERT_EQ(sched.host_scheduler(0).WarmPoolSize(parent), 1u);

  const std::uint64_t warm_before = fabric.metrics().CounterValue("cluster/warm_placements");
  std::vector<ClusterGrant> warm = AcquireGrants(fabric, sched, *family, 1);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0].host, 0u) << "an emptier cold host beat the warm one";
  EXPECT_EQ(warm[0].dom, on_host0[0].dom);
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/warm_placements"), warm_before + 1);

  // No host is warm now; hosts 1 and 2 tie at zero and host 1 wins.
  std::vector<ClusterGrant> cold = AcquireGrants(fabric, sched, *family, 1);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0].host, 1u);
  EXPECT_EQ(sched.active_on(0), 2u);
  EXPECT_EQ(sched.active_on(1), 1u);
  EXPECT_EQ(sched.active_on(2), 0u);
  ExpectClean(fabric);
}

// A granted child that is destroyed outside Release frees its slot once,
// from the host engine's OnDestroy. A child destroyed inside Release (reset
// fallback) and an evicted child (released before) count once too.
TEST(ClusterSchedulerTest, GrantedChildDestroyedElsewhereFreesItsSlot) {
  ClusterConfig cfg = SmallCluster(2);
  cfg.host.sched.warm_pool_capacity = 1;
  ClusterFabric fabric(cfg);
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  fabric.Settle();

  std::vector<ClusterGrant> first = AcquireGrants(fabric, sched, *family, 1);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].host, 0u);
  ASSERT_EQ(sched.active_on(0), 1u);
  ASSERT_TRUE(fabric.host(0).toolstack().DestroyDomain(first[0].dom).ok());
  fabric.Settle();
  EXPECT_EQ(sched.active_on(0), 0u) << "the dead child still holds its slot";
  auto late = sched.Release(first[0]);
  EXPECT_EQ(late.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(sched.active_on(0), 0u);
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/released_total"), 0u);

  // The freed slot counts: both hosts are idle, so the next child lands on
  // host 0 again, then one on host 1 and one more on host 0.
  std::vector<ClusterGrant> next = AcquireGrants(fabric, sched, *family, 1);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].host, 0u);
  std::vector<ClusterGrant> more = AcquireGrants(fabric, sched, *family, 2);
  ASSERT_EQ(sched.active_on(0), 2u);
  ASSERT_EQ(sched.active_on(1), 1u);
  more.push_back(next[0]);

  // Host 0 parks both its children; the second park evicts the first
  // (capacity 1), which was released already and frees nothing more.
  for (const ClusterGrant& g : more) {
    if (g.host == 0) {
      ASSERT_TRUE(sched.Release(g).ok());
    }
  }
  fabric.Settle();
  EXPECT_EQ(fabric.host(0).metrics().CounterValue("sched/evictions"), 1u);
  EXPECT_EQ(sched.active_on(0), 0u);

  // Host 1's child fails its reset: Release destroys it and frees one slot.
  ASSERT_TRUE(fabric.host(1).fault_injector().Arm("sched/park", FaultSpec::NthHit(1)).ok());
  for (const ClusterGrant& g : more) {
    if (g.host == 1) {
      auto outcome = sched.Release(g);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_FALSE(outcome->parked);
      EXPECT_FALSE(outcome->reset_applied);
    }
  }
  fabric.Settle();
  EXPECT_EQ(sched.active_on(1), 0u);
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/released_total"), 3u);
  ExpectClean(fabric);
}

TEST(ClusterSchedulerTest, WarmPoolServesAcrossAcquires) {
  ClusterFabric fabric(SmallCluster(2));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  fabric.Settle();

  std::vector<ClusterGrant> grants;
  auto collect = [&grants](Result<ClusterGrant> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    grants.push_back(*r);
  };
  ASSERT_TRUE(sched.Acquire(*family, 2, collect).ok());
  fabric.Settle();
  ASSERT_EQ(grants.size(), 2u);
  for (const ClusterGrant& g : grants) {
    ASSERT_TRUE(sched.Release(g).ok());
  }
  fabric.Settle();
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/released_total"), 2u);

  // The re-acquire is served from the parked children, wherever they sit.
  const std::uint64_t warm_before = fabric.metrics().CounterValue("cluster/warm_placements");
  std::vector<ClusterGrant> regrants;
  ASSERT_TRUE(sched.Acquire(*family, 2, [&regrants](Result<ClusterGrant> r) {
                     ASSERT_TRUE(r.ok()) << r.status().ToString();
                     regrants.push_back(*r);
                   })
                  .ok());
  fabric.Settle();
  ASSERT_EQ(regrants.size(), 2u);
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/warm_placements"), warm_before + 2);
  ExpectClean(fabric);
}

// ---------------------------------------------------------------------------
// Time: per-host lanes and explicit hand-offs
// ---------------------------------------------------------------------------

// Records the host-lane time at which each child resumed (= was granted).
class ResumeClock : public CloneObserver {
 public:
  explicit ResumeClock(Host& host) : host_(host) { host_.clone_engine().AddObserver(this); }
  ~ResumeClock() override { host_.clone_engine().RemoveObserver(this); }
  void OnResume(DomId dom, bool is_child) override {
    if (is_child) {
      resumed_at[dom] = host_.Now();
    }
  }
  std::map<DomId, SimTime> resumed_at;

 private:
  Host& host_;
};

struct SpreadWave {
  SimDuration last_grant;                 // from the Acquire to its last grant
  std::vector<bool> grant_on_host_clock;  // per grant: fabric.Now() == resume time
  SimTime settled;                        // fabric.Now() after the final Settle()
  SimTime last_grant_at;
};

// One spread Acquire of `children` on a fresh `hosts`-host fabric.
SpreadWave AcquireSpread(std::size_t hosts, unsigned children) {
  ClusterFabric fabric(SmallCluster(hosts));
  ClusterScheduler sched(fabric);
  std::vector<std::unique_ptr<ResumeClock>> clocks;
  for (std::size_t i = 0; i < hosts; ++i) {
    clocks.push_back(std::make_unique<ResumeClock>(fabric.host(i)));
  }
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  EXPECT_TRUE(family.ok());
  fabric.Settle();

  SpreadWave out;
  const SimTime asked = fabric.Now();
  out.last_grant_at = asked;
  EXPECT_TRUE(sched.Acquire(*family, children, [&](Result<ClusterGrant> r) {
                     ASSERT_TRUE(r.ok()) << r.status().ToString();
                     out.last_grant_at = fabric.Now();
                     const auto& resumed = clocks[r->host]->resumed_at;
                     auto it = resumed.find(r->dom);
                     out.grant_on_host_clock.push_back(it != resumed.end() &&
                                                       it->second == fabric.Now());
                   })
                  .ok());
  fabric.Settle();
  out.last_grant = out.last_grant_at - asked;
  out.settled = fabric.Now();
  ExpectClean(fabric);
  return out;
}

TEST(ClusterTimeTest, HostsCloneASpreadWaveInParallel) {
  const SpreadWave one = AcquireSpread(1, 8);
  const SpreadWave four = AcquireSpread(4, 8);
  ASSERT_GT(one.last_grant.ns(), 0);
  EXPECT_LT(four.last_grant.ns() * 2, one.last_grant.ns())
      << "4 hosts: " << four.last_grant.ToMillis()
      << " ms, 1 host: " << one.last_grant.ToMillis() << " ms";
}

TEST(ClusterTimeTest, GrantCallbackReadsTheGrantingHostsClock) {
  const SpreadWave wave = AcquireSpread(4, 8);
  ASSERT_EQ(wave.grant_on_host_clock.size(), 8u);
  for (std::size_t i = 0; i < wave.grant_on_host_clock.size(); ++i) {
    EXPECT_TRUE(wave.grant_on_host_clock[i]) << "grant " << i;
  }
}

TEST(ClusterTimeTest, SettleEndsAtTheLastGrantNotATimeoutLater) {
  const SpreadWave wave = AcquireSpread(4, 8);
  EXPECT_EQ(wave.settled, wave.last_grant_at);
}

TEST(ClusterTimeTest, MigrateIntoABusyHostWaitsForItsClock) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("mover", /*max_clones=*/0));
  // A top-level boot on host 1 charges only host 1's lane.
  ASSERT_TRUE(fabric.host(1).toolstack().CreateDomain(GuestConfig("busy", 0)).ok());
  const SimTime busy_until = fabric.host(1).Now();
  ASSERT_LT(fabric.Now(), busy_until);
  ASSERT_EQ(fabric.host(0).Now(), fabric.Now());

  auto moved = fabric.Migrate(dom, 0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_GT(fabric.Now(), busy_until);
  EXPECT_EQ(fabric.host(0).Now(), fabric.Now());
  fabric.Settle();
  ExpectClean(fabric);
}

// ---------------------------------------------------------------------------
// Cluster exports: prefixes + determinism
// ---------------------------------------------------------------------------

TEST(ClusterExportTest, HostMetricsAreTaggedFabricMetricsAreNot) {
  ClusterFabric fabric(SmallCluster(2));
  (void)Boot(fabric.host(1), GuestConfig("tagged", 0));
  const std::string merged = fabric.ExportClusterMetricsJson();
  EXPECT_NE(merged.find("\"host0/hypervisor/"), std::string::npos);
  EXPECT_NE(merged.find("\"host1/toolstack/domains_booted\""), std::string::npos);
  EXPECT_NE(merged.find("\"fabric/link_tx_bytes\""), std::string::npos);
  // Host registries themselves stay unprefixed (golden-export compatible).
  EXPECT_EQ(fabric.host(1).metrics().ExportJson().find("host1/"), std::string::npos);
}

// Every fabric-registry metric follows subsystem/metric with a fabric-level
// subsystem — the cluster counterpart of tests/metric_names_test.cc.
TEST(ClusterExportTest, FabricMetricNamesAreWellFormed) {
  ClusterFabric fabric(SmallCluster(2));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  (void)fabric.Migrate(parent, 0, 0);  // exercise the failure counters too
  fabric.Settle();
  for (const std::string& name : fabric.metrics().AllNames()) {
    const std::string prefix = name.substr(0, name.find('/'));
    EXPECT_TRUE(prefix == "fabric" || prefix == "cluster" || prefix == "fault")
        << "fabric metric '" << name << "' claims unexpected subsystem '" << prefix << "'";
  }
}

struct ClusterDigest {
  std::string metrics;
  std::string tsdb;
};

// A whole little cluster lifetime: replication, a placement wave, releases,
// a warm wave, one migration, telemetry ticks. Returns the merged exports.
ClusterDigest RunClusterScenario(unsigned clone_workers) {
  ClusterConfig cfg = SmallCluster(3);
  cfg.host.clone_worker_threads = clone_workers;
  ClusterFabric fabric(cfg);
  std::vector<std::unique_ptr<TsdbCollector>> tsdbs;
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    tsdbs.push_back(std::make_unique<TsdbCollector>(fabric.host(i).metrics(), fabric.loop()));
  }
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  EXPECT_TRUE(family.ok());
  fabric.Settle();

  std::vector<ClusterGrant> grants;
  EXPECT_TRUE(sched.Acquire(*family, 9, [&grants](Result<ClusterGrant> r) {
                     if (r.ok()) {
                       grants.push_back(*r);
                     }
                   })
                  .ok());
  fabric.Settle();
  for (const ClusterGrant& g : grants) {
    (void)sched.Release(g);
  }
  fabric.Settle();
  grants.clear();
  EXPECT_TRUE(sched.Acquire(*family, 4, [&grants](Result<ClusterGrant> r) {
                     if (r.ok()) {
                       grants.push_back(*r);
                     }
                   })
                  .ok());
  fabric.Settle();

  DomId solo = Boot(fabric.host(0), GuestConfig("solo", 0));
  auto moved = fabric.Migrate(solo, 0, 2);
  EXPECT_TRUE(moved.ok());
  fabric.Settle();

  for (auto& tsdb : tsdbs) {
    tsdb->ScheduleTicks(3);
  }
  fabric.Settle();

  std::vector<std::pair<std::string, const TsdbCollector*>> parts;
  for (std::size_t i = 0; i < tsdbs.size(); ++i) {
    parts.emplace_back("host" + std::to_string(i), tsdbs[i].get());
  }
  return ClusterDigest{fabric.ExportClusterMetricsJson(),
                       TsdbCollector::ExportMergedJson(parts)};
}

TEST(ClusterExportTest, DigestIsByteIdenticalAcrossRerunsAndWorkerCounts) {
  ClusterDigest first = RunClusterScenario(1);
  ClusterDigest rerun = RunClusterScenario(1);
  ClusterDigest parallel = RunClusterScenario(4);
  EXPECT_EQ(first.metrics, rerun.metrics) << "rerun changed the metrics digest";
  EXPECT_EQ(first.tsdb, rerun.tsdb) << "rerun changed the TSDB digest";
  EXPECT_EQ(first.metrics, parallel.metrics) << "worker count changed the metrics digest";
  EXPECT_EQ(first.tsdb, parallel.tsdb) << "worker count changed the TSDB digest";
}

}  // namespace
}  // namespace nephele
