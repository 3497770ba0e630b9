// Console split device. The backend plays the role of the QEMU console
// process in Dom0: it drains guest output rings into per-domain logs. On
// clone the ring is NOT copied — duplicating the parent's console output in
// the child would hinder debugging (Sec. 4.2).

#ifndef SRC_DEVICES_CONSOLE_H_
#define SRC_DEVICES_CONSOLE_H_

#include <map>
#include <string>

#include "src/base/result.h"
#include "src/devices/ring.h"
#include "src/fault/fault.h"
#include "src/devices/xenbus.h"
#include "src/hypervisor/types.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"

namespace nephele {

class ConsoleBackend {
 public:
  // `clone_fault` is poked at the top of CloneConsole.
  ConsoleBackend(EventLoop& loop, const CostModel& costs, FaultPoint& clone_fault)
      : loop_(loop), costs_(costs), f_clone_(clone_fault) {}

  // Boot path: creates the console state for a new domain.
  Status CreateConsole(DomId dom);

  // Clone path: the child console starts with an EMPTY ring; only the
  // backend bookkeeping is created. No QEMU code changes were needed in the
  // paper — Xenstore watch delivery triggers this.
  Status CloneConsole(DomId parent, DomId child);

  Status DestroyConsole(DomId dom);

  // Guest side: writes bytes through the ring; backend drains immediately.
  Status GuestWrite(DomId dom, const std::string& text);

  // Accumulated output per domain (what `xl console` would show).
  Result<std::string> Output(DomId dom) const;
  bool HasConsole(DomId dom) const { return consoles_.contains(dom); }

  // Dom0-side resident memory attributable to one console (Fig. 5 accounting).
  static constexpr std::size_t kDom0BytesPerConsole = 24 * 1024;
  std::size_t Dom0Bytes() const { return consoles_.size() * kDom0BytesPerConsole; }

 private:
  struct ConsoleState {
    SharedRing<char> ring{4096};
    std::string output;
  };

  EventLoop& loop_;
  const CostModel& costs_;
  FaultPoint& f_clone_;
  std::map<DomId, ConsoleState> consoles_;
};

}  // namespace nephele

#endif  // SRC_DEVICES_CONSOLE_H_
