#include "src/guest/p9_client.h"

namespace nephele {

Result<std::uint32_t> P9Client::Open(const std::string& path, bool writable) {
  if (!mounted()) {
    return ErrFailedPrecondition("no 9pfs mount");
  }
  NEPHELE_ASSIGN_OR_RETURN(std::uint32_t fid, backend_->Walk(dom_, root_fid_, path));
  Status s = backend_->Open(dom_, fid, writable);
  if (!s.ok()) {
    (void)backend_->Clunk(dom_, fid);
    return s;
  }
  return fid;
}

Result<std::uint32_t> P9Client::Create(const std::string& path) {
  if (!mounted()) {
    return ErrFailedPrecondition("no 9pfs mount");
  }
  return backend_->Create(dom_, root_fid_, path);
}

Result<std::vector<std::uint8_t>> P9Client::Read(std::uint32_t fid, std::size_t offset,
                                                 std::size_t count) {
  if (!mounted()) {
    return ErrFailedPrecondition("no 9pfs mount");
  }
  return backend_->Read(dom_, fid, offset, count);
}

Result<std::size_t> P9Client::Write(std::uint32_t fid, std::size_t offset,
                                    const std::vector<std::uint8_t>& data) {
  if (!mounted()) {
    return ErrFailedPrecondition("no 9pfs mount");
  }
  return backend_->Write(dom_, fid, offset, data);
}

Result<std::size_t> P9Client::Size(std::uint32_t fid) {
  if (!mounted()) {
    return ErrFailedPrecondition("no 9pfs mount");
  }
  return backend_->StatSize(dom_, fid);
}

Status P9Client::Close(std::uint32_t fid) {
  if (!mounted()) {
    return ErrFailedPrecondition("no 9pfs mount");
  }
  return backend_->Clunk(dom_, fid);
}

}  // namespace nephele
