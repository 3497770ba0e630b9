// 9pfs split device. Unlike netback (a kernel driver), the 9pfs backend is a
// QEMU *process* in Dom0 holding a table of open-file fids per guest
// (Sec. 5.2.1). Nephele's design decision — reproduced here — is that one
// backend process serves a whole clone family (launching one process per
// clone would bottleneck Dom0), and clone requests arrive over an extended
// QMP management channel.

#ifndef SRC_DEVICES_P9_H_
#define SRC_DEVICES_P9_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/devices/hostfs.h"
#include "src/fault/fault.h"
#include "src/hypervisor/types.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"

namespace nephele {

// One open-file handle in the backend's table.
struct P9Fid {
  std::uint32_t fid = 0;
  std::string path;     // host path relative to the export root
  bool open = false;
  bool writable = false;
};

// The QEMU-like backend process serving one export for one clone family.
class P9BackendProcess {
 public:
  P9BackendProcess(EventLoop& loop, const CostModel& costs, HostFs& fs, std::string export_root);

  const std::string& export_root() const { return export_root_; }

  // --- 9p operations (each models one RPC over the shared ring). ---
  // Establishes the root fid for a guest.
  Result<std::uint32_t> Attach(DomId dom);
  // Derives a new fid for `path` (relative to the export root).
  Result<std::uint32_t> Walk(DomId dom, std::uint32_t dir_fid, const std::string& path);
  Status Open(DomId dom, std::uint32_t fid, bool writable);
  // Creates the file and opens its fid for writing.
  Result<std::uint32_t> Create(DomId dom, std::uint32_t dir_fid, const std::string& name);
  Result<std::vector<std::uint8_t>> Read(DomId dom, std::uint32_t fid, std::size_t offset,
                                         std::size_t count);
  Result<std::size_t> Write(DomId dom, std::uint32_t fid, std::size_t offset,
                            const std::vector<std::uint8_t>& data);
  Status Clunk(DomId dom, std::uint32_t fid);
  Result<std::size_t> StatSize(DomId dom, std::uint32_t fid);

  // --- QMP extension (Sec. 5.2.1): clones the parent's whole fid table for
  // the child inside this same process. ---
  Status QmpCloneFids(DomId parent, DomId child);

  std::size_t NumFids(DomId dom) const;
  bool ServesDomain(DomId dom) const { return tables_.contains(dom); }

  // Dom0 resident memory attributable to this process (Fig. 5 accounting).
  std::size_t Dom0Bytes() const;

 private:
  struct FidTable {
    std::map<std::uint32_t, P9Fid> fids;
    std::uint32_t next_fid = 1;
  };

  friend class P9BackendRegistry;  // releases domains and reaps idle processes

  Result<P9Fid*> FindFid(DomId dom, std::uint32_t fid);
  std::string HostPath(const std::string& rel) const;

  EventLoop& loop_;
  const CostModel& costs_;
  HostFs& fs_;
  std::string export_root_;
  std::map<DomId, FidTable> tables_;
};

// Launches, serves and reaps backend processes: one per (family, export),
// alive while it serves a domain.
class P9BackendRegistry {
 public:
  // `clone_fault` is poked at the top of CloneForChild.
  P9BackendRegistry(EventLoop& loop, const CostModel& costs, HostFs& fs, FaultPoint& clone_fault)
      : loop_(loop), costs_(costs), fs_(fs), f_clone_(clone_fault) {}

  // Boot path: xl launches a backend process for the new guest.
  Result<P9BackendProcess*> LaunchForDomain(DomId dom, const std::string& export_root);

  // Clone path: xencloned sends a QMP clone request to the parent's process.
  Status CloneForChild(DomId parent, DomId child);

  // Destroy path: drops `dom`'s fid table from the process serving it and
  // reaps that process once it serves no domain, returning its Dom0 memory.
  Status ReleaseDomain(DomId dom);

  std::size_t NumProcesses() const { return processes_.size(); }
  std::size_t Dom0Bytes() const;

 private:
  using ProcessList = std::vector<std::unique_ptr<P9BackendProcess>>;
  ProcessList::iterator FindServing(DomId dom);

  EventLoop& loop_;
  const CostModel& costs_;
  HostFs& fs_;
  FaultPoint& f_clone_;
  ProcessList processes_;
};

}  // namespace nephele

#endif  // SRC_DEVICES_P9_H_
