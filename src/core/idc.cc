#include "src/core/idc.h"

namespace nephele {

Result<IdcRegion> IdcRegion::Create(Hypervisor& hv, DomId owner, std::size_t pages) {
  if (pages == 0) {
    return ErrInvalidArgument("empty region");
  }
  hv.ChargeHypercall();
  NEPHELE_ASSIGN_OR_RETURN(Gfn first, hv.PopulatePhysmap(owner, pages, PageRole::kIdcShared));
  // Grant the whole region to whatever clones the owner will have (the
  // DOMID_CHILD wildcard, Sec. 5.1). A grant failure mid-region unwinds the
  // grants already made so no half-granted region survives; the populated
  // pages stay charged to the owner and are reclaimed at domain destruction.
  std::vector<GrantRef> granted;
  granted.reserve(pages);
  for (std::size_t i = 0; i < pages; ++i) {
    auto ref = hv.GrantAccess(owner, kDomChild, first + static_cast<Gfn>(i), false);
    if (!ref.ok()) {
      for (std::size_t j = granted.size(); j-- > 0;) {
        (void)hv.EndGrantAccess(owner, granted[j]);
      }
      return ref.status();
    }
    granted.push_back(*ref);
  }
  return IdcRegion(hv, owner, first, pages);
}

Status IdcRegion::CheckAccess(DomId accessor) const {
  if (accessor == owner_ || hv_->IsDescendantOf(accessor, owner_)) {
    return Status::Ok();
  }
  return ErrPermissionDenied("not a member of the owning family");
}

Status IdcRegion::Write(DomId accessor, std::size_t offset, const void* src, std::size_t len) {
  NEPHELE_RETURN_IF_ERROR(CheckAccess(accessor));
  if (offset + len > pages_ * kPageSize) {
    return ErrOutOfRange("write outside region");
  }
  const auto* bytes = static_cast<const std::uint8_t*>(src);
  while (len > 0) {
    Gfn gfn = first_gfn_ + static_cast<Gfn>(offset / kPageSize);
    std::size_t in_page = offset % kPageSize;
    std::size_t chunk = std::min(len, kPageSize - in_page);
    // The region pages live in the owner's p2m; family members reach the
    // same machine frames through their grant mappings.
    NEPHELE_RETURN_IF_ERROR(hv_->WriteGuestPage(owner_, gfn, in_page, bytes, chunk));
    bytes += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status IdcRegion::Read(DomId accessor, std::size_t offset, void* out, std::size_t len) const {
  NEPHELE_RETURN_IF_ERROR(CheckAccess(accessor));
  if (offset + len > pages_ * kPageSize) {
    return ErrOutOfRange("read outside region");
  }
  auto* bytes = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    Gfn gfn = first_gfn_ + static_cast<Gfn>(offset / kPageSize);
    std::size_t in_page = offset % kPageSize;
    std::size_t chunk = std::min(len, kPageSize - in_page);
    NEPHELE_RETURN_IF_ERROR(hv_->ReadGuestPage(owner_, gfn, in_page, bytes, chunk));
    bytes += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Result<std::uint32_t> IdcRegion::LoadU32(DomId accessor, std::size_t offset) const {
  std::uint32_t v = 0;
  NEPHELE_RETURN_IF_ERROR(Read(accessor, offset, &v, sizeof(v)));
  return v;
}

Status IdcRegion::StoreU32(DomId accessor, std::size_t offset, std::uint32_t value) {
  return Write(accessor, offset, &value, sizeof(value));
}

Result<IdcChannel> IdcChannel::Create(Hypervisor& hv, DomId owner) {
  hv.ChargeHypercall();
  NEPHELE_ASSIGN_OR_RETURN(EvtchnPort port, hv.EvtchnAllocUnbound(owner, kDomChild));
  return IdcChannel(hv, owner, port);
}

Status IdcChannel::Notify(DomId sender) {
  // Both ends use the same port index: the clone first stage duplicates the
  // owner's table, so a clone's entry `port` targets owner:port and the
  // owner's entry targets its first-bound clone.
  return hv_->EvtchnSend(sender, port_);
}

}  // namespace nephele
