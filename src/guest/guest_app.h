// The unikernel application model.
//
// Guests are event-driven: the runtime calls into the app (boot, packets,
// timers) and the app calls back through its GuestContext. fork() cannot
// duplicate a native C++ call stack, so the Fork API is continuation-passing:
//
//   ctx.Fork(1, [](GuestContext& ctx, GuestApp& self, const ForkResult& r) {
//     if (r.is_child) { ... } else { ... use r.children ... }
//   });
//
// The runtime snapshots the app object (CloneApp()) at the fork call — the
// moment the real CLONEOP freezes the parent — and invokes the continuation
// once on the parent (r.is_child == false, rax = 0) and once on each child
// (r.is_child == true, rax = 1), each with its own context. Continuations
// must address state through `self`/`ctx`, never through captured pointers
// into the parent.

#ifndef SRC_GUEST_GUEST_APP_H_
#define SRC_GUEST_GUEST_APP_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/hypervisor/types.h"
#include "src/net/packet.h"

namespace nephele {

class GuestContext;
class GuestApp;

struct ForkResult {
  bool is_child = false;
  // Parent side only: the domain ids the hypervisor filled in (Sec. 5.1).
  std::vector<DomId> children;
};

using ForkContinuation =
    std::function<void(GuestContext& ctx, GuestApp& self, const ForkResult& result)>;

class GuestApp {
 public:
  virtual ~GuestApp() = default;

  // Invoked once after boot (and after restore). NOT invoked on clones —
  // they resume through the fork continuation instead, like fork() children.
  virtual void OnBoot(GuestContext& ctx) = 0;

  // A packet arrived on the guest's vif.
  virtual void OnPacket(GuestContext& ctx, const Packet& packet) { (void)ctx; (void)packet; }

  // Deep copy of the whole application state; the runtime uses it to
  // materialise the child's execution state at clone time. (The page-level
  // COW cost/accounting of that state is handled by the hypervisor; this
  // copy is the semantic counterpart.)
  virtual std::unique_ptr<GuestApp> CloneApp() const = 0;

  virtual std::string_view app_name() const = 0;
};

}  // namespace nephele

#endif  // SRC_GUEST_GUEST_APP_H_
