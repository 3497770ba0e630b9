// Network split driver: NetFrontend (guest side) and NetBackend with its
// per-device Vif state (Dom0 side, the netback analogue). Vifs are
// SwitchPorts so Dom0 switching (bridge/bond/OVS) can aggregate them.
//
// Clone behaviour (Sec. 4.2 / 5.2.1): both TX and RX rings are COPIED for
// the child (pending requests must be serviced on both sides; RX slots are
// guest-preallocated and carry allocator metadata), the negotiation is
// skipped, and the child vif is born Connected with the SAME MAC and IP as
// the parent.

#ifndef SRC_DEVICES_NETIF_H_
#define SRC_DEVICES_NETIF_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/base/result.h"
#include "src/devices/ring.h"
#include "src/devices/xenbus.h"
#include "src/hypervisor/hypervisor.h"
#include "src/net/packet.h"
#include "src/net/switch.h"

namespace nephele {

class NetBackend;

// Guest-resident netfront instance. The guest network stack registers a
// receive handler and transmits through Send().
class NetFrontend {
 public:
  // Guest pages backing the device (out of the guest's own allocation, as on
  // real Xen). 256 RX buffer pages = the "1 MB ... RX network ring alone"
  // of Sec. 6.2.
  static constexpr std::size_t kRxBufferPages = 256;
  static constexpr std::size_t kTxBufferPages = 96;

  NetFrontend(Hypervisor& hv, DomId dom, int devid, MacAddr mac, Ipv4Addr ip);

  // Boot path: allocates ring + buffer pages from guest memory and grants
  // them to the backend domain.
  Status AllocateRings();

  // Clone path: mirrors the parent's layout for the child domain. The
  // child's p2m already contains private duplicates at the same gfns (clone
  // first stage), so only the bookkeeping is rebuilt.
  Status AdoptLayoutFrom(const NetFrontend& parent);

  Status Send(const Packet& packet);

  using ReceiveHandler = std::function<void(const Packet&)>;
  void set_receive_handler(ReceiveHandler handler) { on_receive_ = std::move(handler); }

  void set_backend(NetBackend* backend) { backend_ = backend; }
  void MarkConnected() { connected_ = true; }
  bool connected() const { return connected_; }

  DomId dom() const { return dom_; }
  int devid() const { return devid_; }
  MacAddr mac() const { return mac_; }
  Ipv4Addr ip() const { return ip_; }

  SharedRing<Packet>& tx_ring() { return tx_ring_; }
  SharedRing<Packet>& rx_ring() { return rx_ring_; }
  Gfn tx_ring_gfn() const { return tx_ring_gfn_; }
  Gfn rx_ring_gfn() const { return rx_ring_gfn_; }
  Gfn rx_buffer_gfn() const { return rx_buffer_gfn_; }

  // Backend-facing: pulls received packets out of the RX ring into the
  // guest stack.
  void DrainRx();

 private:
  friend class NetBackend;

  Hypervisor& hv_;
  DomId dom_;
  int devid_;
  MacAddr mac_;
  Ipv4Addr ip_;
  bool connected_ = false;
  NetBackend* backend_ = nullptr;
  ReceiveHandler on_receive_;

  SharedRing<Packet> tx_ring_{256};
  SharedRing<Packet> rx_ring_{256};
  Gfn tx_ring_gfn_ = kInvalidGfn;
  Gfn rx_ring_gfn_ = kInvalidGfn;
  Gfn rx_buffer_gfn_ = kInvalidGfn;
  Gfn tx_buffer_gfn_ = kInvalidGfn;
};

// Dom0-side per-device state; attachable to a HostSwitch.
class Vif : public SwitchPort {
 public:
  Vif(NetBackend& owner, DeviceId id, NetFrontend* frontend);

  void DeliverToGuest(const Packet& packet) override;
  MacAddr mac() const override;
  Ipv4Addr ip() const override;
  std::string port_name() const override { return name_; }

  const DeviceId& id() const { return id_; }
  XenbusState state() const { return state_; }
  void set_state(XenbusState s) { state_ = s; }
  NetFrontend* frontend() { return frontend_; }
  HostSwitch* attached_switch() const { return attached_; }
  void set_attached_switch(HostSwitch* sw) { attached_ = sw; }

 private:
  NetBackend& owner_;
  DeviceId id_;
  std::string name_;
  NetFrontend* frontend_;
  XenbusState state_ = XenbusState::kInitialising;
  HostSwitch* attached_ = nullptr;
};

class NetBackend {
 public:
  // `clone_fault` is poked at the top of CloneDevice.
  NetBackend(Hypervisor& hv, EventLoop& loop, const CostModel& costs, FaultPoint& clone_fault)
      : hv_(hv), loop_(loop), costs_(costs), f_clone_(clone_fault) {}

  using UdevEmitter = std::function<void(const UdevEvent&)>;
  void set_udev_emitter(UdevEmitter emitter) { udev_ = std::move(emitter); }

  // Boot path: called once the frontend reached Initialised; maps rings,
  // creates the host interface (emitting a udev add event) and moves the
  // device to Connected.
  Result<Vif*> ConnectDevice(DeviceId id, NetFrontend* frontend);

  // Clone path: the Sec. 5.2.1 shortcut — creates the child vif directly in
  // Connected state and copies both rings from the parent device.
  Result<Vif*> CloneDevice(const DeviceId& parent, const DeviceId& child,
                           NetFrontend* child_frontend);

  Status DestroyDevice(const DeviceId& id);

  Vif* FindVif(const DeviceId& id);

  // Datapath entry from the frontend TX notify.
  void ProcessTx(NetFrontend* frontend);

  // Dom0 resident memory per vif (netback structs, Fig. 5 accounting).
  static constexpr std::size_t kDom0BytesPerVif = 64 * 1024;
  std::size_t Dom0Bytes() const { return vifs_.size() * kDom0BytesPerVif; }

  std::uint64_t packets_forwarded() const { return packets_forwarded_; }

 private:
  friend class Vif;

  Hypervisor& hv_;
  EventLoop& loop_;
  const CostModel& costs_;
  FaultPoint& f_clone_;
  UdevEmitter udev_;
  std::map<DeviceId, std::unique_ptr<Vif>> vifs_;
  std::uint64_t packets_forwarded_ = 0;
};

}  // namespace nephele

#endif  // SRC_DEVICES_NETIF_H_
