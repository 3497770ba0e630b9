#include "src/toolstack/domain_config.h"

#include <algorithm>

#include "src/devices/netif.h"

namespace nephele {

GuestMemoryLayout ComputeGuestLayout(const DomainConfig& config) {
  GuestMemoryLayout layout;
  layout.total_pages = std::max(MiBToPages(config.memory_mb), kMinDomainPages);
  layout.text_pages = config.image_text_pages;
  layout.data_pages = config.image_data_pages;
  if (config.with_vif) {
    layout.io_pages = 2 + NetFrontend::kRxBufferPages + NetFrontend::kTxBufferPages;
  }
  layout.heap_first_gfn = layout.text_pages + layout.data_pages;
  std::size_t reserved =
      layout.text_pages + layout.data_pages + layout.special_pages + layout.io_pages;
  layout.heap_pages = layout.total_pages > reserved ? layout.total_pages - reserved : 0;
  return layout;
}

}  // namespace nephele
