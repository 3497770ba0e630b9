#include "src/core/xencloned.h"

#include "src/base/log.h"
#include "src/xenstore/path.h"

namespace nephele {

Xencloned::Xencloned(Hypervisor& hv, CloneEngine& engine, XenstoreDaemon& xs,
                     DeviceManager& devices, Toolstack& toolstack, EventLoop& loop,
                     const CostModel& costs, const SystemServices& services)
    : hv_(hv),
      engine_(engine),
      xs_(xs),
      devices_(devices),
      toolstack_(toolstack),
      loop_(loop),
      costs_(costs),
      trace_(services.trace),
      m_clones_completed_(services.metrics.GetCounter("xencloned/clones_completed")),
      m_clones_aborted_(services.metrics.GetCounter("xencloned/clones_aborted")),
      m_cache_hits_(services.metrics.GetCounter("xencloned/cache_hits")),
      m_cache_misses_(services.metrics.GetCounter("xencloned/cache_misses")),
      m_deep_copy_writes_(services.metrics.GetCounter("xencloned/deep_copy_writes")),
      m_stage2_ns_(services.metrics.GetHistogram("xencloned/stage2/duration_ns")),
      f_stage2_(*services.faults.GetPoint("xencloned/stage2")) {}

Status Xencloned::Start() {
  // Bind VIRQ_CLONED and install the Dom0 upcall; the daemon then enables
  // cloning globally (Sec. 5.1).
  NEPHELE_ASSIGN_OR_RETURN(EvtchnPort virq_port, hv_.EvtchnBindVirq(kDom0, Virq::kCloned));
  hv_.SetEvtchnHandler(kDom0, [this, virq_port](EvtchnPort port) {
    if (port == virq_port) {
      DrainNotifications();
    }
  });
  return engine_.EnableGlobal(kDom0, true);
}

void Xencloned::DrainNotifications() {
  CloneNotification n;
  while (engine_.notification_ring().Pop(&n)) {
    HandleNotification(n);
  }
}

const DomainConfig& Xencloned::ParentConfig(DomId parent) {
  ParentInfoCache& cache = parent_cache_[parent];
  if (cache.valid) {
    m_cache_hits_.Increment();
    return cache.config;
  }
  m_cache_misses_.Increment();
  // First clone of this parent: read its Xenstore information and keep it
  // cached to speed up future invocations (Sec. 6.2).
  loop_.AdvanceBy(costs_.xencloned_parent_scan);
  (void)xs_.Read(XsDomainPath(parent) + "/name");
  (void)xs_.Read(XsDomainPath(parent) + "/console/type");
  const DomainConfig* cfg = toolstack_.FindConfig(parent);
  if (cfg != nullptr) {
    cache.config = *cfg;
  }
  cache.valid = true;
  return cache.config;
}

Status Xencloned::CloneXenstoreEntries(DomId parent, DomId child, const DomainConfig& config) {
  // One request clones the whole per-domain directory with domid rewriting;
  // one more covers the backend side of each device type (Sec. 5.2.1).
  NEPHELE_RETURN_IF_ERROR(xs_.XsClone(parent, child, XsCloneOp::kDevVif, XsDomainPath(parent),
                                      XsDomainPath(child)));
  if (config.with_vif) {
    NEPHELE_RETURN_IF_ERROR(xs_.XsClone(parent, child, XsCloneOp::kDevVif,
                                        XsBackendPath(kDom0, "vif", parent, 0),
                                        XsBackendPath(kDom0, "vif", child, 0)));
  }
  if (config.with_p9fs) {
    NEPHELE_RETURN_IF_ERROR(xs_.XsClone(parent, child, XsCloneOp::kDev9pfs,
                                        XsBackendPath(kDom0, "9pfs", parent, 0),
                                        XsBackendPath(kDom0, "9pfs", child, 0)));
  }
  if (config.with_vbd) {
    NEPHELE_RETURN_IF_ERROR(xs_.XsClone(parent, child, XsCloneOp::kDevVbd,
                                        XsBackendPath(kDom0, "vbd", parent, 0),
                                        XsBackendPath(kDom0, "vbd", child, 0)));
  }
  return Status::Ok();
}

Status Xencloned::DeepCopyXenstoreEntries(DomId /*parent*/, DomId child,
                                          const DomainConfig& config) {
  // Ablation path: one write request per entry, "similarly to how the
  // Xenstore entries are created on regular instantiation" (Sec. 6.1).
  const std::string dp = XsDomainPath(child);
  const std::string parent_name = config.name;
  // The first failed write stops the copy; later calls are no-ops so the
  // long literal sequence below needs no per-call checks.
  Status status = Status::Ok();
  auto write = [&](const std::string& path, const std::string& value) {
    if (!status.ok()) {
      return;
    }
    status = xs_.Write(path, value);
    if (!status.ok()) {
      return;
    }
    m_deep_copy_writes_.Increment();
  };
  write(dp + "/name", parent_name);
  write(dp + "/domid", std::to_string(child));
  write(dp + "/console/ring-ref", "consring");
  write(dp + "/console/port", "2");
  write(dp + "/console/type", "xenconsoled");
  write(dp + "/console/limit", "1048576");
  write(dp + "/store/ring-ref", "storering");
  write(dp + "/store/port", "1");
  write("/vm/" + std::to_string(child) + "/name", parent_name);
  write("/vm/" + std::to_string(child) + "/uuid", "uuid-" + std::to_string(child));
  write("/libxl/" + std::to_string(child) + "/type", "pv");
  if (config.with_vif) {
    const std::string fe = XsFrontendPath(child, "vif", 0);
    const std::string be = XsBackendPath(kDom0, "vif", child, 0);
    write(fe + "/backend", be);
    write(fe + "/backend-id", "0");
    write(fe + "/handle", "0");
    write(fe + "/mac", "inherited");
    write(fe + "/tx-ring-ref", "txring");
    write(fe + "/rx-ring-ref", "rxring");
    write(fe + "/event-channel", "4");
    write(fe + "/state", XenbusStateValue(XenbusState::kConnected));
    write(be + "/frontend", fe);
    write(be + "/frontend-id", std::to_string(child));
    write(be + "/handle", "0");
    write(be + "/mac", "inherited");
    write(be + "/bridge", "xenbr0");
    write(be + "/hotplug-status", "connected");
    write(be + "/state", XenbusStateValue(XenbusState::kConnected));
  }
  if (config.with_p9fs) {
    const std::string fe = XsFrontendPath(child, "9pfs", 0);
    const std::string be = XsBackendPath(kDom0, "9pfs", child, 0);
    write(fe + "/backend", be);
    write(fe + "/backend-id", "0");
    write(fe + "/state", XenbusStateValue(XenbusState::kConnected));
    write(be + "/frontend", fe);
    write(be + "/frontend-id", std::to_string(child));
    write(be + "/path", config.p9_export);
    write(be + "/security_model", "none");
    write(be + "/state", XenbusStateValue(XenbusState::kConnected));
  }
  if (config.with_vbd) {
    const std::string fe = XsFrontendPath(child, "vbd", 0);
    const std::string be = XsBackendPath(kDom0, "vbd", child, 0);
    write(fe + "/backend", be);
    write(fe + "/backend-id", "0");
    write(fe + "/state", XenbusStateValue(XenbusState::kConnected));
    write(be + "/frontend", fe);
    write(be + "/frontend-id", std::to_string(child));
    write(be + "/sectors", std::to_string(config.vbd_size_mb * kMiB / 512));
    write(be + "/state", XenbusStateValue(XenbusState::kConnected));
  }
  return status;
}

void Xencloned::HandleNotification(const CloneNotification& n) {
  if (hv_.FindDomain(n.child) == nullptr) {
    // Destroyed while its notification sat in the ring; the destroy hook
    // already retired it as an abort, so there is nothing left to set up.
    return;
  }
  Status status = RunSecondStage(n);
  if (!status.ok()) {
    AbortSecondStage(n, status);
  }
}

Status Xencloned::RunSecondStage(const CloneNotification& n) {
  SimTime stage_start = loop_.Now();
  TraceSpan span = trace_.BeginSpan("clone/stage2");
  span.AddArg("parent", static_cast<std::int64_t>(n.parent));
  span.AddArg("child", static_cast<std::int64_t>(n.child));
  loop_.AdvanceBy(costs_.xencloned_fixed);
  NEPHELE_RETURN_IF_ERROR(f_stage2_.Poke());
  const DomainConfig& parent_cfg = ParentConfig(n.parent);

  // Step 2.1: introduce the child (carrying the parent id) and clone the
  // registry entries.
  NEPHELE_RETURN_IF_ERROR(xs_.IntroduceDomain(n.child, n.parent));
  if (use_xs_clone_) {
    NEPHELE_RETURN_IF_ERROR(CloneXenstoreEntries(n.parent, n.child, parent_cfg));
  } else {
    NEPHELE_RETURN_IF_ERROR(DeepCopyXenstoreEntries(n.parent, n.child, parent_cfg));
  }

  // xencloned generates and sets the clone's name — guaranteed unique, so no
  // uniqueness scan is needed (Sec. 6.1).
  DomainConfig child_cfg = parent_cfg;
  child_cfg.name = parent_cfg.name + ".clone" + std::to_string(++clone_name_counter_);
  NEPHELE_RETURN_IF_ERROR(xs_.Write(XsDomainPath(n.child) + "/name", child_cfg.name));
  (void)hv_.SetDomainName(n.child, child_cfg.name);

  GuestDevices child_devices;

  // Console: Xenstore watch wakes the QEMU console process, which builds the
  // clone state internally; the ring is NOT copied (Sec. 4.2).
  NEPHELE_RETURN_IF_ERROR(devices_.console().CloneConsole(n.parent, n.child));

  bool wait_for_udev = false;
  if (parent_cfg.with_vif) {
    GuestDevices* parent_devices = toolstack_.FindDevices(n.parent);
    if (parent_devices != nullptr && parent_devices->net != nullptr) {
      // Step 2.3 path: netback creates the vif Connected (negotiation
      // skipped), rings copied; the udev event completes setup below.
      auto child_fe = std::make_unique<NetFrontend>(
          hv_, n.child, parent_devices->net->devid(), parent_devices->net->mac(),
          parent_devices->net->ip());
      (void)child_fe->AdoptLayoutFrom(*parent_devices->net);
      auto vif = devices_.netback().CloneDevice(
          DeviceId{n.parent, DeviceType::kVif, parent_devices->net->devid()},
          DeviceId{n.child, DeviceType::kVif, parent_devices->net->devid()}, child_fe.get());
      NEPHELE_RETURN_IF_ERROR(vif.status());
      wait_for_udev = true;
      child_devices.net = std::move(child_fe);
    }
  }
  if (parent_cfg.with_p9fs) {
    // Step 2.2: QMP clone request to the (shared) 9pfs backend process.
    NEPHELE_RETURN_IF_ERROR(devices_.p9().CloneForChild(n.parent, n.child));
    GuestDevices* parent_devices = toolstack_.FindDevices(n.parent);
    if (parent_devices != nullptr) {
      child_devices.p9 = parent_devices->p9;
      child_devices.p9_root_fid = parent_devices->p9_root_fid;
    }
  }
  if (parent_cfg.with_vbd) {
    // Extension device type (Sec. 5.3): the child disk is a COW snapshot of
    // the parent's block table.
    DeviceId parent_disk{n.parent, DeviceType::kVbd, 0};
    DeviceId child_disk{n.child, DeviceType::kVbd, 0};
    NEPHELE_RETURN_IF_ERROR(devices_.vbd().CloneDisk(parent_disk, child_disk));
    child_devices.vbd = std::make_unique<VbdFrontend>(devices_.vbd(), child_disk);
  }

  toolstack_.AdoptClonedDomain(n.child, child_cfg, std::move(child_devices));

  if (child_cfg.start_clones_paused) {
    (void)hv_.PauseDomain(n.child);
  }
  m_clones_completed_.Increment();
  last_second_stage_ = loop_.Now() - stage_start;
  m_stage2_ns_.Observe(last_second_stage_.ns());
  if (!wait_for_udev) {
    // Step 2.4: nothing left in userspace; report completion now.
    (void)engine_.CloneCompletion(n.child);
  }
  // Otherwise HandleUdev() reports completion once the vif is attached.
  return Status::Ok();
}

void Xencloned::AbortSecondStage(const CloneNotification& n, const Status& why) {
  NEPHELE_LOG(kWarn, "xencloned") << "aborting second stage of dom" << n.child << ": "
                                  << why.ToString();
  toolstack_.TeardownDom0State(n.child, ParentConfig(n.parent));
  m_clones_aborted_.Increment();
  // The CLONEOP report of the failure, then the destroy, whose hook retires
  // the child's pending slot as an abort and so unblocks the parent.
  hv_.ChargeHypercall();
  (void)hv_.DestroyDomain(n.child);
}

void Xencloned::HandleUdev(const UdevEvent& event) {
  if (event.kind != UdevEvent::Kind::kAdd || event.device.type != DeviceType::kVif) {
    return;
  }
  Vif* vif = devices_.netback().FindVif(event.device);
  if (vif == nullptr || vif->attached_switch() != nullptr) {
    return;
  }
  loop_.AdvanceBy(costs_.udev_event);
  (void)toolstack_.AttachVif(*vif);
  (void)engine_.CloneCompletion(event.device.dom);
}

}  // namespace nephele
