// Guest-side 9pfs client: path-based file API over the family's backend
// process. Fid bookkeeping is plain data, so it survives CloneApp() and —
// because the backend duplicated the fid table on the QMP clone request —
// a clone's open files keep working (Sec. 5.2.1).

#ifndef SRC_GUEST_P9_CLIENT_H_
#define SRC_GUEST_P9_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/devices/p9.h"

namespace nephele {

class P9Client {
 public:
  P9Client() = default;
  P9Client(P9BackendProcess* backend, DomId dom, std::uint32_t root_fid)
      : backend_(backend), dom_(dom), root_fid_(root_fid) {}

  bool mounted() const { return backend_ != nullptr; }

  Result<std::uint32_t> Open(const std::string& path, bool writable);
  Result<std::uint32_t> Create(const std::string& path);
  Result<std::vector<std::uint8_t>> Read(std::uint32_t fid, std::size_t offset,
                                         std::size_t count);
  Result<std::size_t> Write(std::uint32_t fid, std::size_t offset,
                            const std::vector<std::uint8_t>& data);
  Result<std::size_t> Size(std::uint32_t fid);
  Status Close(std::uint32_t fid);

  // Clone support: same backend process, child's (cloned) fid table.
  void RebindToDomain(DomId dom) { dom_ = dom; }
  DomId dom() const { return dom_; }

 private:
  P9BackendProcess* backend_ = nullptr;
  DomId dom_ = kDomInvalid;
  std::uint32_t root_fid_ = 0;
};

}  // namespace nephele

#endif  // SRC_GUEST_P9_CLIENT_H_
