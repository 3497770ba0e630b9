// DeviceManager: Dom0's collection of backend drivers plus the udev event
// channel from kernel backends to userspace. The toolstack (boot) and
// xencloned (clone) both consume udev events to finish device setup — e.g.
// attaching a fresh vif to the bridge/bond (Sec. 3, Sec. 5 step 2.3).

#ifndef SRC_DEVICES_DEVICE_MANAGER_H_
#define SRC_DEVICES_DEVICE_MANAGER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/devices/console.h"
#include "src/devices/hostfs.h"
#include "src/devices/netif.h"
#include "src/devices/p9.h"
#include "src/devices/vbd.h"
#include "src/hypervisor/hypervisor.h"
#include "src/xenstore/store.h"

namespace nephele {

class DeviceManager {
 public:
  DeviceManager(Hypervisor& hv, XenstoreDaemon& xs, EventLoop& loop, const CostModel& costs,
                const SystemServices& services);

  ConsoleBackend& console() { return console_; }
  NetBackend& netback() { return netback_; }
  P9BackendRegistry& p9() { return p9_; }
  VbdBackend& vbd() { return vbd_; }
  HostFs& hostfs() { return hostfs_; }

  // The udev handler userspace registers (toolstack hotplug or xencloned).
  using UdevHandler = std::function<void(const UdevEvent&)>;
  void SetUdevHandler(UdevHandler handler) { udev_handler_ = std::move(handler); }

  // Total Dom0 resident memory attributable to device backends.
  std::size_t Dom0BackendBytes() const {
    return console_.Dom0Bytes() + netback_.Dom0Bytes() + p9_.Dom0Bytes() +
           vbd_.Dom0Bytes();
  }

 private:
  void DispatchUdev(const UdevEvent& event);

  Hypervisor& hv_;
  XenstoreDaemon& xs_;
  EventLoop& loop_;
  const CostModel& costs_;
  HostFs hostfs_;
  ConsoleBackend console_;
  NetBackend netback_;
  P9BackendRegistry p9_;
  VbdBackend vbd_;
  UdevHandler udev_handler_;
};

}  // namespace nephele

#endif  // SRC_DEVICES_DEVICE_MANAGER_H_
