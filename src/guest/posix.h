// POSIX compatibility shim — the paper's goal is "to close the gap towards
// full POSIX compatibility" (Sec. 1, 7.1): this facade exposes the familiar
// POSIX surface over the unikernel runtime, mapping
//
//   fork()            -> CLONEOP cloning (continuation-passing, Sec. 4)
//   getpid()/getppid()-> domain ids (the family tree)
//   pipe()            -> IDC pipes (Sec. 4.3)
//   open/read/write   -> 9pfs-backed file descriptors
//   socket/bind/sendto-> the guest mini stack
//
// The shim is plain data, so it clones with the application object: file
// descriptors stay valid in the child (9pfs fids were duplicated by the QMP
// clone; pipes are family-shared by construction) — exactly the
// transparency contract fork() promises.

#ifndef SRC_GUEST_POSIX_H_
#define SRC_GUEST_POSIX_H_

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/guest/guest_context.h"
#include "src/guest/ipc.h"

namespace nephele {

class PosixShim {
 public:
  PosixShim() = default;

  // --- process ---
  // fork(): see src/guest/guest_app.h for the continuation contract.
  Status Fork(GuestContext& ctx, ForkContinuation continuation) {
    return ctx.Fork(1, std::move(continuation));
  }
  static DomId GetPid(GuestContext& ctx) { return ctx.id(); }
  // getppid(): kDomInvalid for a booted (non-clone) domain, like pid 0.
  static DomId GetPpid(GuestContext& ctx);
  static void Exit(GuestContext& ctx) { ctx.Exit(); }

  // --- files (9pfs root) ---
  static constexpr int kOpenReadOnly = 0;
  static constexpr int kOpenWrite = 1;
  static constexpr int kOpenCreate = 2;
  Result<int> Open(GuestContext& ctx, const std::string& path, int flags);
  Result<std::vector<std::uint8_t>> Read(GuestContext& ctx, int fd, std::size_t count);
  Result<std::size_t> Write(GuestContext& ctx, int fd, const std::vector<std::uint8_t>& data);
  Result<std::size_t> Lseek(int fd, std::size_t offset);  // SEEK_SET only
  Status Close(GuestContext& ctx, int fd);

  // --- pipes (create BEFORE fork, like pipe(2)) ---
  // Returns {read_fd, write_fd}; both ends work from any family member.
  Result<std::pair<int, int>> Pipe(GuestContext& ctx);

  // --- sockets (UDP) ---
  Result<int> Socket(GuestContext& ctx);
  Status Bind(GuestContext& ctx, int fd, std::uint16_t port);
  Status SendTo(GuestContext& ctx, int fd, Ipv4Addr dst_ip, std::uint16_t dst_port,
                std::vector<std::uint8_t> payload);

 private:
  struct FileFd {
    std::uint32_t fid = 0;
    std::size_t offset = 0;
    bool writable = false;
  };
  struct PipeFd {
    std::shared_ptr<IdcPipe> pipe;  // family-shared object
    bool write_end = false;
  };
  struct SocketFd {
    std::uint16_t bound_port = 0;  // 0 = unbound; ephemeral port on send
  };
  using FdState = std::variant<FileFd, PipeFd, SocketFd>;

  int next_fd_ = 3;  // 0/1/2 reserved, as tradition demands
  std::map<int, FdState> fds_;
};

}  // namespace nephele

#endif  // SRC_GUEST_POSIX_H_
