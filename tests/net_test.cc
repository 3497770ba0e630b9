#include <gtest/gtest.h>

#include <cstdint>

#include "src/fault/fault.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/net/switch.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/event_loop.h"

namespace nephele {
namespace {

class FakePort : public SwitchPort {
 public:
  FakePort(MacAddr mac, Ipv4Addr ip, std::string name)
      : mac_(mac), ip_(ip), name_(std::move(name)) {}

  void DeliverToGuest(const Packet& packet) override { received.push_back(packet); }
  MacAddr mac() const override { return mac_; }
  Ipv4Addr ip() const override { return ip_; }
  std::string port_name() const override { return name_; }

  std::vector<Packet> received;

 private:
  MacAddr mac_;
  Ipv4Addr ip_;
  std::string name_;
};

Packet MakeUdp(Ipv4Addr src_ip, std::uint16_t src_port, Ipv4Addr dst_ip, std::uint16_t dst_port) {
  Packet p;
  p.proto = IpProto::kUdp;
  p.src_ip = src_ip;
  p.src_port = src_port;
  p.dst_ip = dst_ip;
  p.dst_port = dst_port;
  return p;
}

TEST(Packet, Ipv4Formatting) {
  EXPECT_EQ(Ipv4ToString(MakeIpv4(10, 8, 0, 2)), "10.8.0.2");
  EXPECT_EQ(MakeIpv4(255, 255, 255, 255), 0xffffffffu);
}

TEST(Packet, FlowKeyOrderingAndReversal) {
  Packet p = MakeUdp(1, 10, 2, 20);
  FlowKey k = KeyOf(p);
  FlowKey r = Reversed(k);
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_FALSE(k == r);
  EXPECT_TRUE(k == KeyOf(p));
}

TEST(Packet, Layer34HashIsDeterministic) {
  Packet p = MakeUdp(1, 10, 2, 20);
  EXPECT_EQ(Layer34Hash(p), Layer34Hash(p));
  Packet q = MakeUdp(1, 11, 2, 20);
  EXPECT_NE(Layer34Hash(p), Layer34Hash(q));  // overwhelmingly likely
}

// --- FabricLink: one set of link constants for every fabric. ---

struct LinkRig {
  EventLoop loop;
  MetricsRegistry metrics;
  TraceRecorder trace{loop};
  FaultInjector faults{metrics};
  FabricLink link{loop, "host0->host1", {metrics, trace, faults}};

  std::uint64_t Count(const char* name) const { return metrics.CounterValue(name); }
};

TEST(FabricLinkTest, TransferChargesLatencyPlusSerializationOfTheFramedPayload) {
  EXPECT_EQ(kLinkLatency, SimDuration::Micros(50));
  EXPECT_EQ(kLinkBandwidthGbps, 10.0);
  EXPECT_EQ(kLinkMtuBytes, 1500u);
  LinkRig rig;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  // 0 and 1501 leave a fraction of a nanosecond, which is truncated.
  for (std::size_t payload : {std::size_t{0}, std::size_t{1}, std::size_t{1500},
                              std::size_t{1501}, std::size_t{4} << 20}) {
    const std::size_t frames = payload == 0 ? 1 : (payload + 1499) / 1500;
    const std::size_t wire = payload + frames * 54;
    EXPECT_EQ(rig.link.WireBytes(payload), wire) << payload;
    EXPECT_EQ(rig.link.PacketCount(payload), frames) << payload;
    const SimTime before = rig.loop.Now();
    ASSERT_TRUE(rig.link.Transfer(payload).ok()) << payload;
    const auto serialize_ns =
        static_cast<std::int64_t>(static_cast<double>(wire) * 8.0 / kLinkBandwidthGbps);
    EXPECT_EQ(rig.loop.Now() - before, kLinkLatency + SimDuration::Nanos(serialize_ns))
        << payload;
    bytes += wire;
    packets += frames;
    EXPECT_EQ(rig.Count("fabric/link_tx_bytes"), bytes);
    EXPECT_EQ(rig.Count("fabric/link_tx_packets"), packets);
  }
  EXPECT_EQ(rig.Count("fabric/link_down_drops"), 0u);
}

TEST(FabricLinkTest, DownLinkOrArmedPointFailsWithoutChargingTime) {
  LinkRig rig;
  const SimTime start = rig.loop.Now();
  rig.link.SetDown(true);
  EXPECT_EQ(rig.link.Transfer(4096).code(), StatusCode::kUnavailable);
  EXPECT_EQ(rig.loop.Now(), start);
  EXPECT_EQ(rig.Count("fabric/link_down_drops"), 1u);

  rig.link.SetDown(false);
  ASSERT_TRUE(
      rig.faults.Arm("fabric/link", FaultSpec::NthHit(1, StatusCode::kAborted, "cut")).ok());
  EXPECT_EQ(rig.link.Transfer(4096).code(), StatusCode::kAborted);
  EXPECT_EQ(rig.loop.Now(), start);
  EXPECT_EQ(rig.Count("fabric/link_down_drops"), 2u);
  EXPECT_EQ(rig.Count("fabric/link_tx_bytes"), 0u);
  EXPECT_EQ(rig.Count("fabric/link_tx_packets"), 0u);

  // The nth-hit spec fired once; the link carries traffic again.
  EXPECT_TRUE(rig.link.Transfer(4096).ok());
  EXPECT_GT(rig.loop.Now(), start);
}

TEST(Bridge, ForwardsByLearnedMac) {
  Bridge bridge;
  FakePort a(0xaa, 1, "a");
  FakePort b(0xbb, 2, "b");
  ASSERT_TRUE(bridge.Attach(&a).ok());
  ASSERT_TRUE(bridge.Attach(&b).ok());
  Packet p = MakeUdp(1, 10, 2, 20);
  p.dst_mac = 0xbb;
  bridge.TransmitFromGuest(&a, p);
  ASSERT_EQ(b.received.size(), 1u);
}

TEST(Bridge, UnknownMacGoesToUplink) {
  Bridge bridge;
  FakePort a(0xaa, 1, "a");
  ASSERT_TRUE(bridge.Attach(&a).ok());
  int uplinked = 0;
  bridge.set_uplink_sink([&](const Packet&) { ++uplinked; });
  Packet p = MakeUdp(1, 10, 99, 20);
  p.dst_mac = 0xcc;
  bridge.TransmitFromGuest(&a, p);
  EXPECT_EQ(uplinked, 1);
}

TEST(Bridge, IngressFallsBackToIpMatch) {
  Bridge bridge;
  FakePort a(0xaa, MakeIpv4(10, 0, 0, 1), "a");
  ASSERT_TRUE(bridge.Attach(&a).ok());
  Packet p = MakeUdp(1, 10, MakeIpv4(10, 0, 0, 1), 20);
  bridge.InjectFromUplink(p);
  EXPECT_EQ(a.received.size(), 1u);
}

TEST(Bridge, DoubleAttachRejected) {
  Bridge bridge;
  FakePort a(0xaa, 1, "a");
  ASSERT_TRUE(bridge.Attach(&a).ok());
  EXPECT_EQ(bridge.Attach(&a).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(bridge.Detach(&a).ok());
  EXPECT_EQ(bridge.Detach(&a).code(), StatusCode::kNotFound);
}

TEST(Bond, SameTupleAlwaysSameSlave) {
  Bond bond;
  FakePort s0(0x1, 5, "s0"), s1(0x1, 5, "s1"), s2(0x1, 5, "s2");
  ASSERT_TRUE(bond.Attach(&s0).ok());
  ASSERT_TRUE(bond.Attach(&s1).ok());
  ASSERT_TRUE(bond.Attach(&s2).ok());
  Packet p = MakeUdp(7, 1234, 5, 80);
  std::size_t pick = bond.SelectIndex(p);
  for (int i = 0; i < 20; ++i) {
    bond.InjectFromUplink(p);
  }
  EXPECT_EQ(bond.slave(pick)->port_name(),
            pick == 0 ? "s0" : (pick == 1 ? "s1" : "s2"));
  FakePort* chosen = static_cast<FakePort*>(bond.slave(pick));
  EXPECT_EQ(chosen->received.size(), 20u);
}

TEST(Bond, DistinctPortsSpreadAcrossSlaves) {
  Bond bond;
  FakePort s0(0x1, 5, "s0"), s1(0x1, 5, "s1"), s2(0x1, 5, "s2"), s3(0x1, 5, "s3");
  for (FakePort* s : {&s0, &s1, &s2, &s3}) {
    ASSERT_TRUE(bond.Attach(s).ok());
  }
  for (std::uint16_t port = 1000; port < 1400; ++port) {
    bond.InjectFromUplink(MakeUdp(7, port, 5, 80));
  }
  // Roughly uniform: each slave within 2x of fair share.
  for (FakePort* s : {&s0, &s1, &s2, &s3}) {
    EXPECT_GT(s->received.size(), 50u) << s->port_name();
    EXPECT_LT(s->received.size(), 200u) << s->port_name();
  }
}

TEST(Bond, EgressIsStateless) {
  Bond bond;
  FakePort s0(0x1, 5, "s0");
  ASSERT_TRUE(bond.Attach(&s0).ok());
  int uplinked = 0;
  bond.set_uplink_sink([&](const Packet&) { ++uplinked; });
  bond.TransmitFromGuest(&s0, MakeUdp(5, 80, 7, 1234));
  EXPECT_EQ(uplinked, 1);
  EXPECT_TRUE(s0.received.empty());
}

TEST(OvsGroup, DefaultSelectorHashes) {
  OvsGroup group;
  FakePort b0(0x1, 5, "b0"), b1(0x1, 5, "b1");
  ASSERT_TRUE(group.Attach(&b0).ok());
  ASSERT_TRUE(group.Attach(&b1).ok());
  Packet p = MakeUdp(7, 4242, 5, 80);
  group.InjectFromUplink(p);
  group.InjectFromUplink(p);
  EXPECT_EQ(b0.received.size() + b1.received.size(), 2u);
  // Same flow sticks to the same bucket.
  EXPECT_TRUE(b0.received.size() == 2 || b1.received.size() == 2);
  EXPECT_EQ(group.flows_seen(), 1u);
}

TEST(OvsGroup, CustomSelectorOverrides) {
  OvsGroup group;
  FakePort b0(0x1, 5, "b0"), b1(0x1, 5, "b1");
  ASSERT_TRUE(group.Attach(&b0).ok());
  ASSERT_TRUE(group.Attach(&b1).ok());
  group.set_selector([](const Packet&, std::size_t) { return std::size_t{1}; });
  group.InjectFromUplink(MakeUdp(1, 1, 5, 80));
  group.InjectFromUplink(MakeUdp(2, 2, 5, 80));
  EXPECT_EQ(b1.received.size(), 2u);
  EXPECT_TRUE(b0.received.empty());
}

TEST(FindPortForSlave, ProducesInjectiveMapping) {
  // The Fig. 4 methodology: a unique source port per clone such that the
  // bond maps each tuple to the intended slave.
  const std::size_t slaves = 8;
  std::uint16_t next_start = 10000;
  for (std::size_t want = 0; want < slaves; ++want) {
    auto port = FindPortForSlave(MakeIpv4(10, 8, 255, 1), MakeIpv4(10, 8, 0, 2), 7,
                                 IpProto::kUdp, slaves, want, next_start);
    ASSERT_TRUE(port.ok());
    Packet probe = MakeUdp(MakeIpv4(10, 8, 255, 1), *port, MakeIpv4(10, 8, 0, 2), 7);
    EXPECT_EQ(Layer34Hash(probe) % slaves, want);
    next_start = static_cast<std::uint16_t>(*port + 1);
  }
}

TEST(FindPortForSlave, RejectsBadIndex) {
  EXPECT_EQ(FindPortForSlave(1, 2, 7, IpProto::kUdp, 4, 9).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FindPortForSlave(1, 2, 7, IpProto::kUdp, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// Property: the bond's hash-selection is a function — replaying any packet
// set yields identical slave counts (DESIGN.md invariant 6).
class BondDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BondDeterminism, ReplayMatches) {
  std::size_t num_slaves = GetParam();
  auto run = [num_slaves]() {
    Bond bond;
    std::vector<std::unique_ptr<FakePort>> slaves;
    for (std::size_t i = 0; i < num_slaves; ++i) {
      slaves.push_back(std::make_unique<FakePort>(0x1, 5, "s" + std::to_string(i)));
      EXPECT_TRUE(bond.Attach(slaves.back().get()).ok());
    }
    std::vector<std::size_t> counts;
    for (std::uint16_t port = 2000; port < 2200; ++port) {
      bond.InjectFromUplink(MakeUdp(7, port, 5, 80));
    }
    for (auto& s : slaves) {
      counts.push_back(s->received.size());
    }
    return counts;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(SlaveCounts, BondDeterminism, ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace nephele
