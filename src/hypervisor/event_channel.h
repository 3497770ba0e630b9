// Per-domain event-channel table: Xen's asynchronous notification primitive.
// Channels bind either to a (remote domain, remote port) pair, to a VIRQ, or
// sit unbound waiting for a peer. Nephele adds binding to kDomChild: such
// channels are implicitly connected to every clone at clone time (Sec. 5.2.2).
//
// Storage follows use, as in the grant table: max_ports() is the admission
// cap, while the port vector only holds ports up to the high-water mark
// (port 0, reserved, always included) and grows by one slot when first-fit
// finds no free port inside it. Its size is used_port_limit().

#ifndef SRC_HYPERVISOR_EVENT_CHANNEL_H_
#define SRC_HYPERVISOR_EVENT_CHANNEL_H_

#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/hypervisor/types.h"

namespace nephele {

enum class EvtchnState : std::uint8_t {
  kFree = 0,
  kUnbound,      // allocated, waiting for the remote side to bind
  kInterdomain,  // connected to remote_dom:remote_port
  kVirq,         // bound to a virtual interrupt line
};

struct EvtchnEntry {
  EvtchnState state = EvtchnState::kFree;
  DomId remote_dom = kDomInvalid;  // may be kDomChild for IDC channels
  EvtchnPort remote_port = kInvalidPort;
  Virq virq = Virq::kTimer;
  bool pending = false;
  // Channels marked IDC are parent->clone endpoints; the clone first stage
  // rebinds their remote end to the concrete child domid.
  bool idc = false;
};

// Event-channel ports a domain's table may hold.
inline constexpr std::size_t kEvtchnPortsPerDomain = 1024;

class EvtchnTable {
 public:
  explicit EvtchnTable(std::size_t max_ports = kEvtchnPortsPerDomain)
      : max_ports_(max_ports), ports_(1) {}

  std::size_t max_ports() const { return max_ports_; }

  // Allocates an unbound port that `remote` may later bind to. `remote` may
  // be kDomChild (IDC).
  Result<EvtchnPort> AllocUnbound(DomId remote);

  // Completes an interdomain binding on this side.
  Status BindInterdomain(EvtchnPort port, DomId remote_dom, EvtchnPort remote_port);

  // Allocates a port bound to a VIRQ.
  Result<EvtchnPort> BindVirq(Virq virq);

  Status Close(EvtchnPort port);

  Result<EvtchnPort> FindVirqPort(Virq virq) const;

  // Past used_port_limit() this reads as a free entry.
  const EvtchnEntry& entry(EvtchnPort port) const {
    return port < ports_.size() ? ports_[port] : kFree;
  }
  // Precondition: port < used_port_limit().
  EvtchnEntry& mutable_entry(EvtchnPort port) { return ports_[port]; }
  bool ValidPort(EvtchnPort port) const {
    return port < ports_.size() && ports_[port].state != EvtchnState::kFree;
  }

  std::size_t active_ports() const;

  // One past the highest port ever allocated (monotone; 1 while none is):
  // the size of the port vector. Ports at or above this read as kFree, so
  // every table sweep (peer scrubbing, IDC fix-ups, pending delivery, the
  // invariant checks) stops here instead of walking all max_ports().
  std::size_t used_port_limit() const { return ports_.size(); }

  // Clone first stage: duplicate the table for a child.
  EvtchnTable CloneForChild() const;

 private:
  Result<EvtchnPort> AllocPort();

  static constexpr EvtchnEntry kFree{};

  std::size_t max_ports_;
  std::vector<EvtchnEntry> ports_;  // port 0 is reserved
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_EVENT_CHANNEL_H_
