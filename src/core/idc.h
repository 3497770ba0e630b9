// Inter-domain communication (IDC) primitives — the guest-visible API the
// paper adds to Unikraft (Sec. 4.3 / 5.2.2). IPC mechanisms (pipes, socket
// pairs — src/guest/ipc.h) are built from the two primitives here:
//
//  * IdcRegion  — memory shared between the parent and all current/future
//    clones, created with the DOMID_CHILD grant wildcard. Clone-time
//    ownership moves to dom_cow like any shared page, but the pages stay
//    writable on both sides (true sharing, not COW).
//  * IdcChannel — an event channel created with the DOMID_CHILD wildcard;
//    every clone is implicitly bound to it at clone time.

#ifndef SRC_CORE_IDC_H_
#define SRC_CORE_IDC_H_

#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/hypervisor/hypervisor.h"

namespace nephele {

class IdcRegion {
 public:
  // Allocates `pages` from the owner's memory, tags them kIdcShared and
  // grants access to future clones (DOMID_CHILD).
  static Result<IdcRegion> Create(Hypervisor& hv, DomId owner, std::size_t pages);

  DomId owner() const { return owner_; }
  Gfn first_gfn() const { return first_gfn_; }
  std::size_t pages() const { return pages_; }

  // Byte access for any family member. Bounds are region-relative.
  Status Write(DomId accessor, std::size_t offset, const void* src, std::size_t len);
  Status Read(DomId accessor, std::size_t offset, void* out, std::size_t len) const;

  // Atomic-ish helpers for control words stored in the region.
  Result<std::uint32_t> LoadU32(DomId accessor, std::size_t offset) const;
  Status StoreU32(DomId accessor, std::size_t offset, std::uint32_t value);

 private:
  IdcRegion(Hypervisor& hv, DomId owner, Gfn first_gfn, std::size_t pages)
      : hv_(&hv), owner_(owner), first_gfn_(first_gfn), pages_(pages) {}

  Status CheckAccess(DomId accessor) const;

  Hypervisor* hv_;
  DomId owner_;
  Gfn first_gfn_;
  std::size_t pages_;
};

class IdcChannel {
 public:
  // Allocates an unbound port on `owner` naming DOMID_CHILD as the peer.
  static Result<IdcChannel> Create(Hypervisor& hv, DomId owner);

  DomId owner() const { return owner_; }
  EvtchnPort port() const { return port_; }

  // Sends a notification from `sender`'s end of the channel. For the owner
  // this reaches the first-bound clone; for a clone it reaches the owner
  // (every clone's end targets owner:port).
  Status Notify(DomId sender);

 private:
  IdcChannel(Hypervisor& hv, DomId owner, EvtchnPort port)
      : hv_(&hv), owner_(owner), port_(port) {}

  Hypervisor* hv_;
  DomId owner_;
  EvtchnPort port_;
};

}  // namespace nephele

#endif  // SRC_CORE_IDC_H_
