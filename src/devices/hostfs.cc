#include "src/devices/hostfs.h"

namespace nephele {

Status HostFs::CreateFile(const std::string& path) {
  if (files_.contains(path)) {
    return ErrAlreadyExists(path);
  }
  files_[path] = {};
  return Status::Ok();
}

Status HostFs::WriteAt(const std::string& path, std::size_t offset,
                       const std::vector<std::uint8_t>& data) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return ErrNotFound(path);
  }
  auto& f = it->second;
  if (offset + data.size() > f.size()) {
    f.resize(offset + data.size());
  }
  std::copy(data.begin(), data.end(), f.begin() + static_cast<std::ptrdiff_t>(offset));
  return Status::Ok();
}

Result<std::vector<std::uint8_t>> HostFs::ReadAt(const std::string& path, std::size_t offset,
                                                 std::size_t count) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return ErrNotFound(path);
  }
  const auto& f = it->second;
  if (offset >= f.size()) {
    return std::vector<std::uint8_t>{};
  }
  std::size_t n = std::min(count, f.size() - offset);
  return std::vector<std::uint8_t>(f.begin() + static_cast<std::ptrdiff_t>(offset),
                                   f.begin() + static_cast<std::ptrdiff_t>(offset + n));
}

Result<std::size_t> HostFs::SizeOf(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return ErrNotFound(path);
  }
  return it->second.size();
}

Status HostFs::Truncate(const std::string& path, std::size_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return ErrNotFound(path);
  }
  it->second.resize(size);
  return Status::Ok();
}

Status HostFs::Remove(const std::string& path) {
  if (files_.erase(path) == 0) {
    return ErrNotFound(path);
  }
  return Status::Ok();
}

Status HostFs::Rename(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) {
    return ErrNotFound(from);
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::Ok();
}

std::vector<std::string> HostFs::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, data] : files_) {
    if (path.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(path);
    }
  }
  return out;
}

}  // namespace nephele
