// Minimal lwip-like guest network stack over a netfront device: UDP sockets
// and a thin TCP flow model (listen / implicit accept / request-response).
// All mutable state is plain data so it clones with the app (Sec. 4.3:
// transparency — the stack works identically in parent and child).

#ifndef SRC_GUEST_MINISTACK_H_
#define SRC_GUEST_MINISTACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "src/base/result.h"
#include "src/devices/netif.h"
#include "src/net/packet.h"

namespace nephele {

struct TcpFlow {
  FlowKey key;           // remote -> local direction
  bool established = false;
  std::uint64_t requests = 0;
};

class MiniStack {
 public:
  explicit MiniStack(NetFrontend* frontend) : frontend_(frontend) {}

  // Packets not consumed by the stack itself (UDP to bound ports, TCP data
  // on established flows) are delivered here — the runtime routes them to
  // GuestApp::OnPacket.
  using DeliveryHandler = std::function<void(const Packet&)>;
  void SetDeliveryHandler(DeliveryHandler handler) { deliver_ = std::move(handler); }

  NetFrontend* frontend() { return frontend_; }

  // --- UDP ---
  Status UdpBind(std::uint16_t port);
  Status UdpSend(std::uint16_t src_port, Ipv4Addr dst_ip, std::uint16_t dst_port,
                 std::vector<std::uint8_t> payload);

  // --- TCP (flow-level model) ---
  Status TcpListen(std::uint16_t port);
  // Replies on the reversed tuple of `request`.
  Status TcpReply(const Packet& request, std::vector<std::uint8_t> payload);

  // Entry point wired to the frontend's receive handler.
  void OnFrameReceived(const Packet& packet);

  // Clone support: copies bindings and flows from the parent's stack (the
  // page-level state was already duplicated by the clone first stage).
  void CopyStateFrom(const MiniStack& parent);

  std::size_t established_flows() const;
  std::uint64_t packets_dropped() const { return dropped_; }
  bool IsUdpBound(std::uint16_t port) const { return udp_ports_.contains(port); }
  bool IsTcpListening(std::uint16_t port) const { return tcp_listen_ports_.contains(port); }

 private:
  NetFrontend* frontend_;
  DeliveryHandler deliver_;
  std::set<std::uint16_t> udp_ports_;
  std::set<std::uint16_t> tcp_listen_ports_;
  std::map<FlowKey, TcpFlow> flows_;
  std::uint64_t dropped_ = 0;
};

}  // namespace nephele

#endif  // SRC_GUEST_MINISTACK_H_
