#include "src/core/host.h"

namespace nephele {

Host::Host(SystemConfig config, EventLoop* peer, std::size_t index)
    : config_(std::move(config)),
      loop_(peer == nullptr ? EventLoop() : EventLoop(*peer)),
      index_(index),
      metrics_prefix_("host" + std::to_string(index) + "/") {
  hv_ = std::make_unique<Hypervisor>(loop_, costs(), config_.hypervisor, services());
  xs_ = std::make_unique<XenstoreDaemon>(loop_, costs(), services());
  devices_ = std::make_unique<DeviceManager>(*hv_, *xs_, loop_, costs(), services());
  toolstack_ = std::make_unique<Toolstack>(*hv_, *xs_, *devices_, loop_, costs(), services());
  engine_ = std::make_unique<CloneEngine>(*hv_, services(), config_.lazy_clone);
  engine_->SetWorkerThreads(config_.clone_worker_threads);
  xencloned_ = std::make_unique<Xencloned>(*hv_, *engine_, *xs_, *devices_, *toolstack_, loop_,
                                           costs(), services());

  // Route udev events: devices of clones are completed by xencloned, freshly
  // booted ones by the toolstack hotplug scripts.
  devices_->SetUdevHandler([this](const UdevEvent& event) {
    const Domain* d = hv_->FindDomain(event.device.dom);
    if (d != nullptr && d->parent != kDomInvalid) {
      xencloned_->HandleUdev(event);
    } else {
      (void)toolstack_->HandleVifHotplug(event);
    }
  });

  (void)xencloned_->Start();
}

}  // namespace nephele
