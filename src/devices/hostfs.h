// In-memory host filesystem standing in for the Dom0 ramdisk that backs the
// 9pfs shares (the paper stores the whole Dom0 root on a ramdisk to remove
// storage-medium noise, Sec. 6).

#ifndef SRC_DEVICES_HOSTFS_H_
#define SRC_DEVICES_HOSTFS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/result.h"

namespace nephele {

class HostFs {
 public:
  Status CreateFile(const std::string& path);
  bool Exists(const std::string& path) const { return files_.contains(path); }

  // Writes `data` at `offset`, extending the file as needed.
  Status WriteAt(const std::string& path, std::size_t offset,
                 const std::vector<std::uint8_t>& data);
  Result<std::vector<std::uint8_t>> ReadAt(const std::string& path, std::size_t offset,
                                           std::size_t count) const;
  Result<std::size_t> SizeOf(const std::string& path) const;
  Status Truncate(const std::string& path, std::size_t size);
  Status Remove(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);

  // All paths under `prefix`.
  std::vector<std::string> List(const std::string& prefix) const;

  std::size_t NumFiles() const { return files_.size(); }

 private:
  std::map<std::string, std::vector<std::uint8_t>> files_;
};

}  // namespace nephele

#endif  // SRC_DEVICES_HOSTFS_H_
