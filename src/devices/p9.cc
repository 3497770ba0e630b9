#include "src/devices/p9.h"

#include <algorithm>
#include <string_view>

namespace nephele {

namespace {
// Resident memory of a QEMU 9pfs backend process and of one fid entry.
constexpr std::size_t kDom0BytesPerProcess = 9 * 1024 * 1024;
constexpr std::size_t kDom0BytesPerFid = 256;

// Rejects walk/create path components that would escape the export root
// (".." — a hostile guest steering its fid above export_root_) or that name
// the directory itself ("."): the real 9p server resolves each component
// against the export and refuses both.
Status ValidatePathComponents(const std::string& path) {
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t slash = path.find('/', start);
    std::size_t end = slash == std::string::npos ? path.size() : slash;
    std::string_view comp(path.data() + start, end - start);
    if (comp == "..") {
      return ErrPermissionDenied("9p path escapes export root");
    }
    if (comp == ".") {
      return ErrInvalidArgument("9p path component '.' not allowed");
    }
    if (slash == std::string::npos) {
      break;
    }
    start = slash + 1;
  }
  return Status::Ok();
}
}  // namespace

P9BackendProcess::P9BackendProcess(EventLoop& loop, const CostModel& costs, HostFs& fs,
                                   std::string export_root)
    : loop_(loop), costs_(costs), fs_(fs), export_root_(std::move(export_root)) {}

std::string P9BackendProcess::HostPath(const std::string& rel) const {
  if (rel.empty() || rel == "/") {
    return export_root_;
  }
  if (rel.front() == '/') {
    return export_root_ + rel;
  }
  return export_root_ + "/" + rel;
}

Result<P9Fid*> P9BackendProcess::FindFid(DomId dom, std::uint32_t fid) {
  auto dit = tables_.find(dom);
  if (dit == tables_.end()) {
    return ErrNotFound("domain not attached");
  }
  auto fit = dit->second.fids.find(fid);
  if (fit == dit->second.fids.end()) {
    return ErrNotFound("bad fid");
  }
  return &fit->second;
}

Result<std::uint32_t> P9BackendProcess::Attach(DomId dom) {
  loop_.AdvanceBy(costs_.p9_rpc);
  FidTable& t = tables_[dom];  // creates on first attach
  std::uint32_t fid = t.next_fid++;
  t.fids[fid] = P9Fid{fid, "/", /*open=*/false, /*writable=*/false};
  return fid;
}

Result<std::uint32_t> P9BackendProcess::Walk(DomId dom, std::uint32_t dir_fid,
                                             const std::string& path) {
  loop_.AdvanceBy(costs_.p9_rpc);
  NEPHELE_ASSIGN_OR_RETURN(P9Fid * dir, FindFid(dom, dir_fid));
  NEPHELE_RETURN_IF_ERROR(ValidatePathComponents(path));
  std::string rel = dir->path == "/" ? "/" + path : dir->path + "/" + path;
  FidTable& t = tables_[dom];
  std::uint32_t fid = t.next_fid++;
  t.fids[fid] = P9Fid{fid, rel, /*open=*/false, /*writable=*/false};
  return fid;
}

Status P9BackendProcess::Open(DomId dom, std::uint32_t fid, bool writable) {
  loop_.AdvanceBy(costs_.p9_rpc);
  NEPHELE_ASSIGN_OR_RETURN(P9Fid * f, FindFid(dom, fid));
  if (!fs_.Exists(HostPath(f->path))) {
    return ErrNotFound(f->path);
  }
  f->open = true;
  f->writable = writable;
  return Status::Ok();
}

Result<std::uint32_t> P9BackendProcess::Create(DomId dom, std::uint32_t dir_fid,
                                               const std::string& name) {
  loop_.AdvanceBy(costs_.p9_rpc);
  NEPHELE_ASSIGN_OR_RETURN(P9Fid * dir, FindFid(dom, dir_fid));
  if (name.find('/') != std::string::npos) {
    return ErrInvalidArgument("9p create name must not contain '/'");
  }
  NEPHELE_RETURN_IF_ERROR(ValidatePathComponents(name));
  std::string rel = dir->path == "/" ? "/" + name : dir->path + "/" + name;
  std::string host = HostPath(rel);
  if (!fs_.Exists(host)) {
    NEPHELE_RETURN_IF_ERROR(fs_.CreateFile(host));
  } else {
    NEPHELE_RETURN_IF_ERROR(fs_.Truncate(host, 0));
  }
  FidTable& t = tables_[dom];
  std::uint32_t fid = t.next_fid++;
  t.fids[fid] = P9Fid{fid, rel, /*open=*/true, /*writable=*/true};
  return fid;
}

Result<std::vector<std::uint8_t>> P9BackendProcess::Read(DomId dom, std::uint32_t fid,
                                                         std::size_t offset, std::size_t count) {
  loop_.AdvanceBy(costs_.p9_rpc);
  NEPHELE_ASSIGN_OR_RETURN(P9Fid * f, FindFid(dom, fid));
  if (!f->open) {
    return ErrFailedPrecondition("fid not open");
  }
  NEPHELE_ASSIGN_OR_RETURN(auto data, fs_.ReadAt(HostPath(f->path), offset, count));
  loop_.AdvanceBy(costs_.P9TransferCost(data.size()));
  return data;
}

Result<std::size_t> P9BackendProcess::Write(DomId dom, std::uint32_t fid, std::size_t offset,
                                            const std::vector<std::uint8_t>& data) {
  loop_.AdvanceBy(costs_.p9_rpc);
  NEPHELE_ASSIGN_OR_RETURN(P9Fid * f, FindFid(dom, fid));
  if (!f->open || !f->writable) {
    return ErrFailedPrecondition("fid not open for writing");
  }
  NEPHELE_RETURN_IF_ERROR(fs_.WriteAt(HostPath(f->path), offset, data));
  loop_.AdvanceBy(costs_.P9TransferCost(data.size()));
  return data.size();
}

Status P9BackendProcess::Clunk(DomId dom, std::uint32_t fid) {
  loop_.AdvanceBy(costs_.p9_rpc);
  auto dit = tables_.find(dom);
  if (dit == tables_.end() || dit->second.fids.erase(fid) == 0) {
    return ErrNotFound("bad fid");
  }
  return Status::Ok();
}

Result<std::size_t> P9BackendProcess::StatSize(DomId dom, std::uint32_t fid) {
  loop_.AdvanceBy(costs_.p9_rpc);
  NEPHELE_ASSIGN_OR_RETURN(P9Fid * f, FindFid(dom, fid));
  return fs_.SizeOf(HostPath(f->path));
}

Status P9BackendProcess::QmpCloneFids(DomId parent, DomId child) {
  loop_.AdvanceBy(costs_.qmp_roundtrip);
  auto pit = tables_.find(parent);
  if (pit == tables_.end()) {
    return ErrNotFound("parent not attached");
  }
  if (tables_.contains(child)) {
    return ErrAlreadyExists("child already attached");
  }
  FidTable child_table = pit->second;  // duplicate every fid (same host files)
  loop_.AdvanceBy(costs_.p9_fid_clone * static_cast<double>(child_table.fids.size()));
  tables_[child] = std::move(child_table);
  return Status::Ok();
}

std::size_t P9BackendProcess::NumFids(DomId dom) const {
  auto it = tables_.find(dom);
  return it == tables_.end() ? 0 : it->second.fids.size();
}

std::size_t P9BackendProcess::Dom0Bytes() const {
  std::size_t fids = 0;
  for (const auto& [dom, table] : tables_) {
    fids += table.fids.size();
  }
  return kDom0BytesPerProcess + fids * kDom0BytesPerFid;
}

Result<P9BackendProcess*> P9BackendRegistry::LaunchForDomain(DomId dom,
                                                             const std::string& export_root) {
  if (FindServing(dom) != processes_.end()) {
    return ErrAlreadyExists("domain already served");
  }
  // Process spawn + export setup.
  loop_.AdvanceBy(SimDuration::Millis(4));
  auto proc = std::make_unique<P9BackendProcess>(loop_, costs_, fs_, export_root);
  P9BackendProcess* raw = proc.get();
  processes_.push_back(std::move(proc));
  return raw->Attach(dom).ok() ? Result<P9BackendProcess*>(raw)
                               : Result<P9BackendProcess*>(ErrInternal("attach failed"));
}

Status P9BackendRegistry::CloneForChild(DomId parent, DomId child) {
  NEPHELE_RETURN_IF_ERROR(f_clone_.Poke());
  auto it = FindServing(parent);
  if (it == processes_.end()) {
    return ErrNotFound("no backend serves parent");
  }
  return (*it)->QmpCloneFids(parent, child);
}

Status P9BackendRegistry::ReleaseDomain(DomId dom) {
  auto it = FindServing(dom);
  if (it == processes_.end()) {
    return ErrNotFound("no backend serves domain");
  }
  (*it)->tables_.erase(dom);
  if ((*it)->tables_.empty()) {
    processes_.erase(it);
  }
  return Status::Ok();
}

P9BackendRegistry::ProcessList::iterator P9BackendRegistry::FindServing(DomId dom) {
  return std::find_if(processes_.begin(), processes_.end(),
                      [dom](const auto& p) { return p->ServesDomain(dom); });
}

std::size_t P9BackendRegistry::Dom0Bytes() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    n += p->Dom0Bytes();
  }
  return n;
}

}  // namespace nephele
