// xl-style domain configuration.

#ifndef SRC_TOOLSTACK_DOMAIN_CONFIG_H_
#define SRC_TOOLSTACK_DOMAIN_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/base/units.h"
#include "src/net/packet.h"

namespace nephele {

struct DomainConfig {
  std::string name;
  // Total guest memory. Xen's minimum is 4 MiB (Sec. 6.2).
  std::size_t memory_mb = 4;
  int vcpus = 1;

  // Non-zero enables cloning for this guest ("a guest can be cloned only if
  // its xl configuration file specifies a non-zero value for the maximum
  // number of clones", Sec. 5.1).
  std::uint32_t max_clones = 0;

  // Unikernel image footprint (statically linked text dominates; Sec. 4.1).
  std::size_t image_text_pages = 300;  // ~1.2 MiB
  std::size_t image_data_pages = 64;   // ~256 KiB

  bool with_vif = true;
  MacAddr mac = 0;     // auto-assigned when 0
  Ipv4Addr ip = 0;     // auto-assigned when 0

  bool with_p9fs = false;
  std::string p9_export = "/srv/guest-root";

  // Virtual block device (the Sec. 5.3 extension device type).
  bool with_vbd = false;
  std::size_t vbd_size_mb = 64;

  // Leave clones paused after creation instead of resuming them (Sec. 5:
  // "child domains are either resumed or left in paused state, depending on
  // how they are configured").
  bool start_clones_paused = false;
};

// Deterministic guest pseudo-physical layout derived from a config:
//   [0, text) | [text, text+data) | heap | start_info, console, xenstore |
//   vif rings + buffers (when configured).
// Shared by the toolstack boot path and the guest runtime (heap/arena).
struct GuestMemoryLayout {
  std::size_t total_pages = 0;
  std::size_t text_pages = 0;
  std::size_t data_pages = 0;
  std::size_t heap_first_gfn = 0;
  std::size_t heap_pages = 0;
  std::size_t special_pages = 3;
  std::size_t io_pages = 0;
};

// Xen enforces a minimum domain size of 4 MiB (Sec. 6.2): a smaller
// memory_mb still gets this many pages.
inline constexpr std::size_t kMinDomainPages = 4 * kMiB / kPageSize;

GuestMemoryLayout ComputeGuestLayout(const DomainConfig& config);

}  // namespace nephele

#endif  // SRC_TOOLSTACK_DOMAIN_CONFIG_H_
