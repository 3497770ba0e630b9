#include "src/devices/netif.h"

#include "src/base/log.h"

namespace nephele {

// ---------------------------------------------------------------------------
// NetFrontend
// ---------------------------------------------------------------------------

NetFrontend::NetFrontend(Hypervisor& hv, DomId dom, int devid, MacAddr mac, Ipv4Addr ip)
    : hv_(hv), dom_(dom), devid_(devid), mac_(mac), ip_(ip) {}

Status NetFrontend::AllocateRings() {
  NEPHELE_ASSIGN_OR_RETURN(tx_ring_gfn_, hv_.PopulatePhysmap(dom_, 1, PageRole::kIoRing));
  NEPHELE_ASSIGN_OR_RETURN(rx_ring_gfn_, hv_.PopulatePhysmap(dom_, 1, PageRole::kIoRing));
  NEPHELE_ASSIGN_OR_RETURN(rx_buffer_gfn_,
                           hv_.PopulatePhysmap(dom_, kRxBufferPages, PageRole::kIoBuffer));
  NEPHELE_ASSIGN_OR_RETURN(tx_buffer_gfn_,
                           hv_.PopulatePhysmap(dom_, kTxBufferPages, PageRole::kIoBuffer));
  // Grant the whole region to the backend domain; one batched hypercall.
  hv_.ChargeHypercall();
  NEPHELE_RETURN_IF_ERROR(hv_.GrantAccess(dom_, kDom0, tx_ring_gfn_, false).status());
  NEPHELE_RETURN_IF_ERROR(hv_.GrantAccess(dom_, kDom0, rx_ring_gfn_, false).status());
  for (std::size_t i = 0; i < kRxBufferPages; ++i) {
    NEPHELE_RETURN_IF_ERROR(
        hv_.GrantAccess(dom_, kDom0, rx_buffer_gfn_ + static_cast<Gfn>(i), false).status());
  }
  for (std::size_t i = 0; i < kTxBufferPages; ++i) {
    NEPHELE_RETURN_IF_ERROR(
        hv_.GrantAccess(dom_, kDom0, tx_buffer_gfn_ + static_cast<Gfn>(i), true).status());
  }
  return Status::Ok();
}

Status NetFrontend::AdoptLayoutFrom(const NetFrontend& parent) {
  // The clone first stage duplicated the parent's private I/O pages at the
  // same gfns in the child's p2m; grants were cloned with the grant table.
  tx_ring_gfn_ = parent.tx_ring_gfn_;
  rx_ring_gfn_ = parent.rx_ring_gfn_;
  rx_buffer_gfn_ = parent.rx_buffer_gfn_;
  tx_buffer_gfn_ = parent.tx_buffer_gfn_;
  return Status::Ok();
}

Status NetFrontend::Send(const Packet& packet) {
  if (!connected_ || backend_ == nullptr) {
    return ErrFailedPrecondition("netfront not connected");
  }
  NEPHELE_RETURN_IF_ERROR(tx_ring_.Push(packet));
  hv_.loop().AdvanceBy(hv_.costs().net_tx_packet);
  // TX notify: the backend drains asynchronously (one event later), so a
  // paused domain can legitimately hold pending TX entries — exactly the
  // state the ring-copy clone semantics exist for.
  NetBackend* backend = backend_;
  NetFrontend* self = this;
  hv_.loop().Post(SimDuration::Micros(3), [backend, self] { backend->ProcessTx(self); });
  return Status::Ok();
}

void NetFrontend::DrainRx() {
  while (!rx_ring_.empty()) {
    auto packet = rx_ring_.Pop();
    hv_.loop().AdvanceBy(hv_.costs().net_rx_packet);
    if (on_receive_) {
      on_receive_(*packet);
    }
  }
}

// ---------------------------------------------------------------------------
// Vif
// ---------------------------------------------------------------------------

Vif::Vif(NetBackend& owner, DeviceId id, NetFrontend* frontend)
    : owner_(owner),
      id_(id),
      name_("vif" + std::to_string(id.dom) + "." + std::to_string(id.devid)),
      frontend_(frontend) {}

void Vif::DeliverToGuest(const Packet& packet) {
  if (state_ != XenbusState::kConnected || frontend_ == nullptr) {
    return;  // drop, as netback does for unconnected vifs
  }
  if (!frontend_->rx_ring().Push(packet).ok()) {
    return;  // RX ring overflow: drop
  }
  owner_.loop_.AdvanceBy(owner_.costs_.net_rx_packet);
  // RX notify to the guest.
  NetFrontend* fe = frontend_;
  DomId dom = id_.dom;
  Hypervisor& hv = owner_.hv_;
  owner_.loop_.Post(SimDuration::Micros(3), [fe, dom, &hv] {
    const Domain* d = hv.FindDomain(dom);
    if (d == nullptr || d->IsPaused()) {
      return;  // packets stay pending in the RX ring (clone-relevant state)
    }
    fe->DrainRx();
  });
}

MacAddr Vif::mac() const { return frontend_ != nullptr ? frontend_->mac() : 0; }

Ipv4Addr Vif::ip() const { return frontend_ != nullptr ? frontend_->ip() : 0; }

// ---------------------------------------------------------------------------
// NetBackend
// ---------------------------------------------------------------------------

Result<Vif*> NetBackend::ConnectDevice(DeviceId id, NetFrontend* frontend) {
  if (vifs_.contains(id)) {
    return ErrAlreadyExists("vif exists");
  }
  auto vif = std::make_unique<Vif>(*this, id, frontend);
  Vif* raw = vif.get();
  vifs_.emplace(id, std::move(vif));
  raw->set_state(XenbusState::kConnected);
  frontend->set_backend(this);
  frontend->MarkConnected();
  if (udev_) {
    udev_(UdevEvent{UdevEvent::Kind::kAdd, id, raw->port_name()});
  }
  return raw;
}

Result<Vif*> NetBackend::CloneDevice(const DeviceId& parent, const DeviceId& child,
                                     NetFrontend* child_frontend) {
  NEPHELE_RETURN_IF_ERROR(f_clone_.Poke());
  auto pit = vifs_.find(parent);
  if (pit == vifs_.end()) {
    return ErrNotFound("parent vif missing");
  }
  if (vifs_.contains(child)) {
    return ErrAlreadyExists("child vif exists");
  }
  loop_.AdvanceBy(costs_.netback_clone_fixed);
  auto vif = std::make_unique<Vif>(*this, child, child_frontend);
  Vif* raw = vif.get();
  vifs_.emplace(child, std::move(vif));
  // Shortcut: born Connected, negotiation skipped.
  raw->set_state(XenbusState::kConnected);
  child_frontend->set_backend(this);
  child_frontend->MarkConnected();
  // Ring contents are duplicated for network devices — both directions.
  NetFrontend* parent_fe = pit->second->frontend();
  if (parent_fe != nullptr) {
    child_frontend->tx_ring().CopyContentsFrom(parent_fe->tx_ring());
    child_frontend->rx_ring().CopyContentsFrom(parent_fe->rx_ring());
    loop_.AdvanceBy(costs_.page_copy * 2.0);  // the two ring pages
  }
  if (udev_) {
    udev_(UdevEvent{UdevEvent::Kind::kAdd, child, raw->port_name()});
  }
  return raw;
}

Status NetBackend::DestroyDevice(const DeviceId& id) {
  auto it = vifs_.find(id);
  if (it == vifs_.end()) {
    return ErrNotFound("no vif");
  }
  if (HostSwitch* sw = it->second->attached_switch(); sw != nullptr) {
    (void)sw->Detach(it->second.get());
  }
  if (udev_) {
    udev_(UdevEvent{UdevEvent::Kind::kRemove, id, it->second->port_name()});
  }
  vifs_.erase(it);
  return Status::Ok();
}

Vif* NetBackend::FindVif(const DeviceId& id) {
  auto it = vifs_.find(id);
  return it == vifs_.end() ? nullptr : it->second.get();
}

void NetBackend::ProcessTx(NetFrontend* frontend) {
  DeviceId id{frontend->dom(), DeviceType::kVif, frontend->devid()};
  Vif* vif = FindVif(id);
  if (vif == nullptr || vif->state() != XenbusState::kConnected) {
    return;
  }
  while (!frontend->tx_ring().empty()) {
    auto packet = frontend->tx_ring().Pop();
    loop_.AdvanceBy(costs_.net_tx_packet);
    ++packets_forwarded_;
    if (HostSwitch* sw = vif->attached_switch(); sw != nullptr) {
      sw->TransmitFromGuest(vif, *packet);
    }
  }
}

}  // namespace nephele
