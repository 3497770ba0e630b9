#include "src/devices/device_manager.h"

namespace nephele {

DeviceManager::DeviceManager(Hypervisor& hv, XenstoreDaemon& xs, EventLoop& loop,
                             const CostModel& costs, const SystemServices& services)
    : hv_(hv),
      xs_(xs),
      loop_(loop),
      costs_(costs),
      console_(loop, costs, *services.faults.GetPoint("devices/console_clone")),
      netback_(hv, loop, costs, *services.faults.GetPoint("devices/net_clone")),
      p9_(loop, costs, hostfs_, *services.faults.GetPoint("devices/p9_clone")),
      vbd_(loop, costs, *services.faults.GetPoint("devices/vbd_clone")) {
  netback_.set_udev_emitter([this](const UdevEvent& event) { DispatchUdev(event); });
}

void DeviceManager::DispatchUdev(const UdevEvent& event) {
  // Kernel -> userspace netlink delivery; the handler runs one event later.
  loop_.Post(SimDuration::Micros(150), [this, event] {
    if (udev_handler_) {
      udev_handler_(event);
    }
  });
}

}  // namespace nephele
