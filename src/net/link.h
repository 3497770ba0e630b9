// FabricLink: one direction of a latency/bandwidth-costed inter-host link.
// Migration and replication streams cross the cluster on these; the cost
// model reuses the packet framing of src/net (Packet::wire_size() charges a
// 54-byte L2+L3+L4 header per frame), so a stream's virtual-time cost is
//
//   kLinkLatency + (payload + ceil(payload/kLinkMtuBytes) * 54 bytes) * 8
//                  / kLinkBandwidthGbps
//
// Every link of every fabric has these same three constants.
//
// charged synchronously to the sending host's lane of the cluster event loop
// (src/sim/event_loop.h): a stream occupies its source, and the receiver
// catches up with the sender's clock before it reads the stream. Links carry
// a down flag (partition injection) and poke the fabric-level fault point
// "fabric/link" once per transfer, so tests can fail a stream mid-flight
// deterministically.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <string>

#include "src/base/result.h"
#include "src/fault/fault.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/sim/event_loop.h"
#include "src/sim/time.h"

namespace nephele {

// One-way propagation delay, charged once per Transfer.
inline constexpr SimDuration kLinkLatency = SimDuration::Micros(50);
// Serialization rate. 10 Gbps is the paper's testbed NIC class.
inline constexpr double kLinkBandwidthGbps = 10.0;
// Payload bytes per frame; each frame pays the 54-byte wire header.
inline constexpr std::size_t kLinkMtuBytes = 1500;

class FabricLink {
 public:
  // `loop` is the sending host's lane.
  FabricLink(EventLoop& loop, std::string name, const SystemServices& services);

  FabricLink(const FabricLink&) = delete;
  FabricLink& operator=(const FabricLink&) = delete;

  const std::string& name() const { return name_; }

  // Partition injection: a down link refuses every Transfer with
  // kUnavailable until brought back up.
  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Ships `payload_bytes` across the link, charging propagation latency and
  // per-frame serialization on the sender's lane. Fails with kUnavailable when the
  // link is down, or with whatever the armed "fabric/link" fault injects.
  Status Transfer(std::size_t payload_bytes);

  // Frames a payload the way Transfer charges it: full-MTU packets plus the
  // per-frame header overhead.
  std::size_t WireBytes(std::size_t payload_bytes) const;
  std::size_t PacketCount(std::size_t payload_bytes) const;

 private:
  EventLoop& loop_;
  std::string name_;
  Counter& c_bytes_;
  Counter& c_packets_;
  Counter& c_down_drops_;
  FaultPoint& f_link_;
  bool down_ = false;
};

}  // namespace nephele

#endif  // SRC_NET_LINK_H_
