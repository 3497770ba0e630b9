// GuestContext: what a unikernel application sees of its environment — the
// Unikraft-side API surface: fork, sockets, files, console, timers, heap.

#ifndef SRC_GUEST_GUEST_CONTEXT_H_
#define SRC_GUEST_GUEST_CONTEXT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/guest/arena.h"
#include "src/guest/guest_app.h"
#include "src/guest/ministack.h"
#include "src/devices/vbd.h"
#include "src/guest/p9_client.h"

namespace nephele {

class GuestManager;

class GuestContext {
 public:
  GuestContext(GuestManager& manager, DomId dom);

  DomId id() const { return dom_; }
  GuestManager& manager() { return manager_; }

  // --- fork() (Sec. 4/5.1): clones this VM `num_children` times. The
  // continuation runs once on the parent and once on each child; see
  // src/guest/guest_app.h for the exact contract. ---
  Status Fork(unsigned num_children, ForkContinuation continuation);

  // --- Networking ---
  MiniStack& net() { return *net_; }
  Status UdpBind(std::uint16_t port) { return net_->UdpBind(port); }
  Status UdpSend(std::uint16_t src_port, Ipv4Addr dst_ip, std::uint16_t dst_port,
                 std::vector<std::uint8_t> payload) {
    return net_->UdpSend(src_port, dst_ip, dst_port, std::move(payload));
  }
  Status TcpListen(std::uint16_t port) { return net_->TcpListen(port); }
  Status TcpReply(const Packet& request, std::vector<std::uint8_t> payload) {
    return net_->TcpReply(request, std::move(payload));
  }
  Ipv4Addr ip() const;

  // --- Filesystem (9pfs root) ---
  P9Client& fs() { return fs_; }

  // --- Block device (vbd extension; null when the guest has none) ---
  VbdFrontend* block();

  // --- Heap ---
  GuestArena& arena() { return *arena_; }

  // --- Console ---
  Status ConsoleWrite(const std::string& text);

  // --- Time ---
  SimTime Now() const;
  // One-shot guest timer; the callback is skipped if the guest is gone by
  // then.
  void Post(SimDuration delay, std::function<void(GuestContext&)> fn);

  // Terminates this guest (exit() analogue): the toolstack destroys the
  // domain asynchronously.
  void Exit();

  // Runtime wiring (GuestManager only).
  void AttachNet(std::unique_ptr<MiniStack> stack) { net_ = std::move(stack); }
  void AttachArena(std::unique_ptr<GuestArena> arena) { arena_ = std::move(arena); }
  void AttachFs(P9Client fs) { fs_ = fs; }

 private:
  friend class GuestManager;

  GuestManager& manager_;
  DomId dom_;
  std::unique_ptr<MiniStack> net_;
  std::unique_ptr<GuestArena> arena_;
  P9Client fs_;
};

}  // namespace nephele

#endif  // SRC_GUEST_GUEST_CONTEXT_H_
