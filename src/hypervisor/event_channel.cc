#include "src/hypervisor/event_channel.h"

namespace nephele {

Result<EvtchnPort> EvtchnTable::AllocPort() {
  // Port 0 is reserved, as on Xen.
  for (std::size_t i = 1; i < ports_.size(); ++i) {
    if (ports_[i].state == EvtchnState::kFree) {
      return static_cast<EvtchnPort>(i);
    }
  }
  if (ports_.size() >= max_ports_) {
    return ErrResourceExhausted("event channel table full");
  }
  ports_.emplace_back();
  return static_cast<EvtchnPort>(ports_.size() - 1);
}

Result<EvtchnPort> EvtchnTable::AllocUnbound(DomId remote) {
  NEPHELE_ASSIGN_OR_RETURN(EvtchnPort port, AllocPort());
  EvtchnEntry& e = ports_[port];
  e.state = EvtchnState::kUnbound;
  e.remote_dom = remote;
  e.remote_port = kInvalidPort;
  e.pending = false;
  e.idc = (remote == kDomChild);
  return port;
}

Status EvtchnTable::BindInterdomain(EvtchnPort port, DomId remote_dom, EvtchnPort remote_port) {
  if (port >= ports_.size() || ports_[port].state == EvtchnState::kFree) {
    return ErrNotFound("port not allocated");
  }
  EvtchnEntry& e = ports_[port];
  if (e.state == EvtchnState::kInterdomain) {
    return ErrFailedPrecondition("port already bound");
  }
  e.state = EvtchnState::kInterdomain;
  e.remote_dom = remote_dom;
  e.remote_port = remote_port;
  return Status::Ok();
}

Result<EvtchnPort> EvtchnTable::BindVirq(Virq virq) {
  // One binding per VIRQ per domain.
  for (std::size_t i = 1; i < ports_.size(); ++i) {
    if (ports_[i].state == EvtchnState::kVirq && ports_[i].virq == virq) {
      return ErrAlreadyExists("virq already bound");
    }
  }
  NEPHELE_ASSIGN_OR_RETURN(EvtchnPort port, AllocPort());
  EvtchnEntry& e = ports_[port];
  e.state = EvtchnState::kVirq;
  e.virq = virq;
  e.pending = false;
  return port;
}

Status EvtchnTable::Close(EvtchnPort port) {
  if (port >= ports_.size() || ports_[port].state == EvtchnState::kFree) {
    return ErrNotFound("port not allocated");
  }
  ports_[port] = EvtchnEntry{};
  return Status::Ok();
}

Result<EvtchnPort> EvtchnTable::FindVirqPort(Virq virq) const {
  for (std::size_t i = 1; i < ports_.size(); ++i) {
    if (ports_[i].state == EvtchnState::kVirq && ports_[i].virq == virq) {
      return static_cast<EvtchnPort>(i);
    }
  }
  return ErrNotFound("virq not bound");
}

std::size_t EvtchnTable::active_ports() const {
  std::size_t n = 0;
  for (const auto& e : ports_) {
    if (e.state != EvtchnState::kFree) {
      ++n;
    }
  }
  return n;
}

EvtchnTable EvtchnTable::CloneForChild() const {
  EvtchnTable child(max_ports_);
  child.ports_ = ports_;
  for (EvtchnEntry& e : child.ports_) {
    e.pending = false;
  }
  return child;
}

}  // namespace nephele
