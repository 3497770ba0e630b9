#include "src/net/link.h"

namespace nephele {

FabricLink::FabricLink(EventLoop& loop, std::string name, const SystemServices& services)
    : loop_(loop),
      name_(std::move(name)),
      c_bytes_(services.metrics.GetCounter("fabric/link_tx_bytes")),
      c_packets_(services.metrics.GetCounter("fabric/link_tx_packets")),
      c_down_drops_(services.metrics.GetCounter("fabric/link_down_drops")),
      f_link_(*services.faults.GetPoint("fabric/link")) {}

std::size_t FabricLink::PacketCount(std::size_t payload_bytes) const {
  return payload_bytes == 0 ? 1 : (payload_bytes + kLinkMtuBytes - 1) / kLinkMtuBytes;
}

std::size_t FabricLink::WireBytes(std::size_t payload_bytes) const {
  // An empty Packet's wire_size() is exactly the per-frame header overhead.
  const std::size_t header = Packet{}.wire_size();
  return payload_bytes + PacketCount(payload_bytes) * header;
}

Status FabricLink::Transfer(std::size_t payload_bytes) {
  if (down_) {
    c_down_drops_.Increment();
    return ErrUnavailable("link " + name_ + " is down");
  }
  if (Status s = f_link_.Poke(); !s.ok()) {
    c_down_drops_.Increment();
    return s;
  }
  const std::size_t wire = WireBytes(payload_bytes);
  const std::size_t packets = PacketCount(payload_bytes);
  const double serialize_ns =
      static_cast<double>(wire) * 8.0 / kLinkBandwidthGbps;  // bits / (Gbps) = ns
  loop_.AdvanceBy(kLinkLatency + SimDuration::Nanos(static_cast<std::int64_t>(serialize_ns)));
  c_bytes_.Increment(wire);
  c_packets_.Increment(packets);
  return Status::Ok();
}

}  // namespace nephele
