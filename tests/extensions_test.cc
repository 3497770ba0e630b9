// Tests for the smaller extension features: Xenstore transactions, the
// stateful OVS least-loaded selector, and SMP family pinning.

#include <gtest/gtest.h>

#include "src/apps/udp_ready_app.h"
#include "src/core/smp.h"
#include "src/guest/guest_manager.h"
#include "src/net/switch.h"
#include "src/obs/trace.h"
#include "src/xenstore/store.h"

namespace nephele {
namespace {

// --- Xenstore transactions ---

class XsTxnTest : public ::testing::Test {
 protected:
  XsTxnTest() : xs_(loop_, DefaultCostModel(), {metrics_, trace_, faults_}) {}
  EventLoop loop_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{loop_};
  FaultInjector faults_{metrics_};
  XenstoreDaemon xs_;
};

TEST_F(XsTxnTest, CommitAppliesAtomically) {
  auto txn = xs_.TransactionStart();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/a", "1").ok());
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/b", "2").ok());
  // Nothing visible before commit.
  EXPECT_EQ(xs_.Read("/t/a").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(xs_.TransactionEnd(*txn, /*commit=*/true).ok());
  EXPECT_EQ(*xs_.Read("/t/a"), "1");
  EXPECT_EQ(*xs_.Read("/t/b"), "2");
  EXPECT_EQ(xs_.ActiveTransactions(), 0u);
}

TEST_F(XsTxnTest, AbortDiscards) {
  auto txn = xs_.TransactionStart();
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/a", "1").ok());
  ASSERT_TRUE(xs_.TransactionEnd(*txn, /*commit=*/false).ok());
  EXPECT_EQ(xs_.Read("/t/a").status().code(), StatusCode::kNotFound);
}

TEST_F(XsTxnTest, ReadYourWrites) {
  ASSERT_TRUE(xs_.Write("/t/a", "old").ok());
  auto txn = xs_.TransactionStart();
  EXPECT_EQ(*xs_.TxnRead(*txn, "/t/a"), "old");
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/a", "new").ok());
  EXPECT_EQ(*xs_.TxnRead(*txn, "/t/a"), "new");
  EXPECT_EQ(*xs_.Read("/t/a"), "old");  // outside the transaction
  ASSERT_TRUE(xs_.TransactionEnd(*txn, true).ok());
  EXPECT_EQ(*xs_.Read("/t/a"), "new");
}

TEST_F(XsTxnTest, WriteWriteConflictAborts) {
  ASSERT_TRUE(xs_.Write("/t/a", "0").ok());
  auto txn = xs_.TransactionStart();
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/a", "txn").ok());
  ASSERT_TRUE(xs_.Write("/t/a", "racer").ok());  // concurrent writer
  EXPECT_EQ(xs_.TransactionEnd(*txn, true).code(), StatusCode::kAborted);
  EXPECT_EQ(*xs_.Read("/t/a"), "racer");  // the racer's value stands
}

TEST_F(XsTxnTest, ReadWriteConflictAborts) {
  ASSERT_TRUE(xs_.Write("/t/a", "0").ok());
  auto txn = xs_.TransactionStart();
  EXPECT_EQ(*xs_.TxnRead(*txn, "/t/a"), "0");
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/b", "derived-from-a").ok());
  ASSERT_TRUE(xs_.Write("/t/a", "changed").ok());
  EXPECT_EQ(xs_.TransactionEnd(*txn, true).code(), StatusCode::kAborted);
  EXPECT_FALSE(xs_.Exists("/t/b"));
}

// A conflict is remembered for the transaction's whole life, not for a
// window of recent writes: thousands of later writes elsewhere must not
// let a commit built on a stale read through.
TEST_F(XsTxnTest, ConflictBehindThousandsOfLaterWritesStillAborts) {
  ASSERT_TRUE(xs_.Write("/t/a", "0").ok());
  auto txn = xs_.TransactionStart();
  EXPECT_EQ(*xs_.TxnRead(*txn, "/t/a"), "0");
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/b", "derived-from-a").ok());
  ASSERT_TRUE(xs_.Write("/t/a", "changed").ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(xs_.Write("/other/" + std::to_string(i), "x").ok());
  }
  EXPECT_EQ(xs_.TransactionEnd(*txn, true).code(), StatusCode::kAborted);
  EXPECT_FALSE(xs_.Exists("/t/b"));
}

TEST_F(XsTxnTest, IndependentWritesDoNotConflict) {
  auto txn = xs_.TransactionStart();
  ASSERT_TRUE(xs_.TxnWrite(*txn, "/t/a", "1").ok());
  ASSERT_TRUE(xs_.Write("/elsewhere", "x").ok());
  EXPECT_TRUE(xs_.TransactionEnd(*txn, true).ok());
}

TEST_F(XsTxnTest, UnknownTransactionRejected) {
  EXPECT_EQ(xs_.TxnWrite(42, "/a", "1").code(), StatusCode::kNotFound);
  EXPECT_EQ(xs_.TxnRead(42, "/a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(xs_.TransactionEnd(42, true).code(), StatusCode::kNotFound);
}

TEST_F(XsTxnTest, TransactionsChargeRequests) {
  std::uint64_t before = metrics_.CounterValue("xenstore/requests/total");
  auto txn = xs_.TransactionStart();
  (void)xs_.TxnWrite(*txn, "/t/a", "1");
  (void)xs_.TransactionEnd(*txn, true);
  EXPECT_EQ(metrics_.CounterValue("xenstore/requests/total"), before + 3);
}

// --- OVS least-loaded selector ---

class CountingPort : public SwitchPort {
 public:
  explicit CountingPort(std::string name) : name_(std::move(name)) {}
  void DeliverToGuest(const Packet&) override { ++delivered; }
  MacAddr mac() const override { return 0x1; }
  Ipv4Addr ip() const override { return 5; }
  std::string port_name() const override { return name_; }
  int delivered = 0;

 private:
  std::string name_;
};

Packet FlowPacket(std::uint16_t src_port) {
  Packet p;
  p.proto = IpProto::kTcp;
  p.src_ip = 7;
  p.src_port = src_port;
  p.dst_ip = 5;
  p.dst_port = 80;
  return p;
}

TEST(OvsLeastLoaded, BalancesFlowsExactly) {
  OvsGroup group;
  CountingPort a("a"), b("b"), c("c");
  for (CountingPort* p : {&a, &b, &c}) {
    ASSERT_TRUE(group.Attach(p).ok());
  }
  group.UseLeastLoadedSelector();
  for (std::uint16_t f = 0; f < 9; ++f) {
    group.InjectFromUplink(FlowPacket(static_cast<std::uint16_t>(1000 + f)));
  }
  // Perfectly even — unlike hashing, which only balances in expectation.
  EXPECT_EQ(group.BucketLoad(0), 3u);
  EXPECT_EQ(group.BucketLoad(1), 3u);
  EXPECT_EQ(group.BucketLoad(2), 3u);
}

TEST(OvsLeastLoaded, FlowAffinityPreserved) {
  OvsGroup group;
  CountingPort a("a"), b("b");
  ASSERT_TRUE(group.Attach(&a).ok());
  ASSERT_TRUE(group.Attach(&b).ok());
  group.UseLeastLoadedSelector();
  for (int i = 0; i < 5; ++i) {
    group.InjectFromUplink(FlowPacket(1000));  // same flow
  }
  // One port got everything.
  EXPECT_TRUE((a.delivered == 5 && b.delivered == 0) ||
              (a.delivered == 0 && b.delivered == 5));
  EXPECT_EQ(group.BucketLoad(0) + group.BucketLoad(1), 1u);
}

TEST(OvsLeastLoaded, AdaptsToNewBuckets) {
  OvsGroup group;
  CountingPort a("a");
  ASSERT_TRUE(group.Attach(&a).ok());
  group.UseLeastLoadedSelector();
  group.InjectFromUplink(FlowPacket(1));
  group.InjectFromUplink(FlowPacket(2));
  CountingPort b("b");
  ASSERT_TRUE(group.Attach(&b).ok());  // clone attached later
  group.InjectFromUplink(FlowPacket(3));
  // The new flow lands on the empty bucket.
  EXPECT_EQ(b.delivered, 1);
}

// --- SMP pinning ---

class SmpTest : public ::testing::Test {
 protected:
  SmpTest() : system_(SmallSystem()), guests_(system_) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;
    return cfg;
  }

  NepheleSystem system_;
  GuestManager guests_;
};

TEST_F(SmpTest, FamilyPinnedRoundRobin) {
  DomainConfig cfg;
  cfg.name = "smp";
  cfg.max_clones = 8;
  cfg.with_vif = false;
  auto dom = guests_.Launch(cfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
    system_.Settle();
  }
  auto family = CollectFamily(system_.hypervisor(), *dom);
  ASSERT_EQ(family.size(), 4u);
  auto pinned = PinFamilyAcrossCpus(system_.hypervisor(), *dom, 4);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(*pinned, 4u);
  // One family member per core, all distinct.
  std::set<int> cpus;
  for (DomId d : family) {
    cpus.insert(system_.hypervisor().FindDomain(d)->vcpus[0].affinity);
  }
  EXPECT_EQ(cpus.size(), 4u);
}

TEST_F(SmpTest, PinWrapsWhenFamilyExceedsCpus) {
  DomainConfig cfg;
  cfg.name = "smp";
  cfg.max_clones = 8;
  cfg.with_vif = false;
  auto dom = guests_.Launch(cfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
    system_.Settle();
  }
  auto pinned = PinFamilyAcrossCpus(system_.hypervisor(), *dom, 2);
  ASSERT_TRUE(pinned.ok());
  for (DomId d : CollectFamily(system_.hypervisor(), *dom)) {
    int cpu = system_.hypervisor().FindDomain(d)->vcpus[0].affinity;
    EXPECT_GE(cpu, 0);
    EXPECT_LT(cpu, 2);
  }
}

TEST_F(SmpTest, PinInvalidArgs) {
  EXPECT_EQ(PinFamilyAcrossCpus(system_.hypervisor(), 1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PinFamilyAcrossCpus(system_.hypervisor(), 404, 4).status().code(),
            StatusCode::kNotFound);
}

TEST_F(SmpTest, CloneAffinityReplicatedThenRepinned) {
  DomainConfig cfg;
  cfg.name = "smp";
  cfg.max_clones = 2;
  cfg.with_vif = false;
  auto dom = guests_.Launch(cfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system_.Settle();
  system_.hypervisor().FindDomain(*dom)->vcpus[0].affinity = 1;
  ASSERT_TRUE(guests_.ContextOf(*dom)->Fork(1, nullptr).ok());
  system_.Settle();
  DomId child = system_.hypervisor().FindDomain(*dom)->children.front();
  // Sec. 5.2: affinity replicated on clone ...
  EXPECT_EQ(system_.hypervisor().FindDomain(child)->vcpus[0].affinity, 1);
  // ... and the SMP helper spreads the family afterwards.
  ASSERT_TRUE(PinFamilyAcrossCpus(system_.hypervisor(), *dom, 2).ok());
  EXPECT_NE(system_.hypervisor().FindDomain(*dom)->vcpus[0].affinity,
            system_.hypervisor().FindDomain(child)->vcpus[0].affinity);
}

}  // namespace
}  // namespace nephele
