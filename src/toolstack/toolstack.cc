#include "src/toolstack/toolstack.h"

#include "src/base/log.h"
#include "src/xenstore/path.h"

namespace nephele {

Toolstack::Toolstack(Hypervisor& hv, XenstoreDaemon& xs, DeviceManager& devices, EventLoop& loop,
                     const CostModel& costs, const SystemServices& services)
    : hv_(hv),
      xs_(xs),
      devices_(devices),
      loop_(loop),
      costs_(costs),
      trace_(services.trace),
      m_domains_booted_(services.metrics.GetCounter("toolstack/domains_booted")),
      m_domains_restored_(services.metrics.GetCounter("toolstack/domains_restored")),
      m_domains_destroyed_(services.metrics.GetCounter("toolstack/domains_destroyed")),
      m_boot_ns_(services.metrics.GetHistogram("toolstack/boot/duration_ns")),
      m_restore_ns_(services.metrics.GetHistogram("toolstack/restore/duration_ns")),
      f_create_domain_(*services.faults.GetPoint("toolstack/create_domain")) {
  default_switch_ = &builtin_bridge_;
  services.metrics.GetGauge("toolstack/dom0_free_bytes").SetProvider([this] {
    return static_cast<std::int64_t>(Dom0FreeBytes());
  });
  services.metrics.GetGauge("toolstack/domains_running").SetProvider([this] {
    return static_cast<std::int64_t>(configs_.size());
  });
}

std::size_t Toolstack::Dom0FreeBytes() const {
  std::size_t used = kDom0BaseServicesBytes;
  used += xs_.ApproxMemoryBytes();
  used += devices_.Dom0BackendBytes();
  used += configs_.size() * kDom0BytesPerDomainBookkeeping;
  return used >= kDom0TotalBytes ? 0 : kDom0TotalBytes - used;
}

void Toolstack::TeardownDom0State(DomId dom, const DomainConfig& config) {
  // Every step is best-effort: whatever a half-built domain never got
  // simply reports not-found and is skipped.
  if (config.with_vif) {
    (void)devices_.netback().DestroyDevice(DeviceId{dom, DeviceType::kVif, 0});
  }
  if (config.with_p9fs) {
    (void)devices_.p9().ReleaseDomain(dom);
  }
  if (config.with_vbd) {
    (void)devices_.vbd().DestroyDisk(DeviceId{dom, DeviceType::kVbd, 0});
  }
  (void)devices_.console().DestroyConsole(dom);
  (void)xs_.Rm(XsDomainPath(dom));
  (void)xs_.Rm("/vm/" + std::to_string(dom));
  (void)xs_.Rm("/libxl/" + std::to_string(dom));
  // Backend directories live under Dom0's path and must go too, with the
  // per-domain directory that holds the device's node.
  const std::string backend_root = XsDomainPath(kDom0) + "/backend/";
  if (config.with_vif) {
    (void)xs_.Rm(backend_root + "vif/" + std::to_string(dom));
  }
  if (config.with_p9fs) {
    (void)xs_.Rm(backend_root + "9pfs/" + std::to_string(dom));
  }
  if (config.with_vbd) {
    (void)xs_.Rm(backend_root + "vbd/" + std::to_string(dom));
  }
  if (xs_.DomainKnown(dom)) {
    (void)xs_.ReleaseDomain(dom);
  }
}

void Toolstack::WriteBaseXenstoreEntries(DomId dom, const DomainConfig& config) {
  const std::string dp = XsDomainPath(dom);
  (void)xs_.Write(dp + "/name", config.name);
  (void)xs_.Write(dp + "/domid", std::to_string(dom));
  (void)xs_.Write(dp + "/console/ring-ref", "consring");
  (void)xs_.Write(dp + "/console/port", "2");
  (void)xs_.Write(dp + "/console/type", "xenconsoled");
  (void)xs_.Write(dp + "/console/limit", "1048576");
  (void)xs_.Write(dp + "/store/ring-ref", "storering");
  (void)xs_.Write(dp + "/store/port", "1");
  (void)xs_.Write("/vm/" + std::to_string(dom) + "/name", config.name);
  (void)xs_.Write("/vm/" + std::to_string(dom) + "/uuid", "uuid-" + std::to_string(dom));
  (void)xs_.Write("/libxl/" + std::to_string(dom) + "/type", "pv");
}

Status Toolstack::PopulateGuestMemory(DomId dom, const DomainConfig& config) {
  const GuestMemoryLayout layout = ComputeGuestLayout(config);
  if (layout.heap_pages == 0 &&
      layout.total_pages <
          layout.text_pages + layout.data_pages + layout.io_pages + layout.special_pages) {
    return ErrInvalidArgument("memory too small for image + I/O pages");
  }

  NEPHELE_RETURN_IF_ERROR(
      hv_.PopulatePhysmap(dom, layout.text_pages, PageRole::kImageText).status());
  NEPHELE_RETURN_IF_ERROR(hv_.PopulatePhysmap(dom, layout.data_pages, PageRole::kData).status());
  NEPHELE_RETURN_IF_ERROR(hv_.PopulatePhysmap(dom, layout.heap_pages, PageRole::kData).status());
  NEPHELE_RETURN_IF_ERROR(hv_.AllocSpecialPage(dom, PageRole::kStartInfo).status());
  NEPHELE_RETURN_IF_ERROR(hv_.AllocSpecialPage(dom, PageRole::kConsoleRing).status());
  NEPHELE_RETURN_IF_ERROR(hv_.AllocSpecialPage(dom, PageRole::kXenstoreRing).status());
  return Status::Ok();
}

Status Toolstack::SetupVif(DomId dom, const DomainConfig& config, GuestDevices& devices) {
  const int devid = 0;
  const std::string fe_path = XsFrontendPath(dom, "vif", devid);
  const std::string be_path = XsBackendPath(kDom0, "vif", dom, devid);

  MacAddr mac = config.mac != 0 ? config.mac : NextMac();
  Ipv4Addr ip = config.ip != 0 ? config.ip : NextIp();
  devices.net = std::make_unique<NetFrontend>(hv_, dom, devid, mac, ip);

  // Stage 1 of the negotiation: toolstack seeds both directories.
  (void)xs_.Write(fe_path + "/backend", be_path);
  (void)xs_.Write(fe_path + "/backend-id", "0");
  (void)xs_.Write(fe_path + "/handle", std::to_string(devid));
  (void)xs_.Write(fe_path + "/mac", std::to_string(mac));
  (void)xs_.Write(fe_path + "/state", XenbusStateValue(XenbusState::kInitialising));
  (void)xs_.Write(be_path + "/frontend", fe_path);
  (void)xs_.Write(be_path + "/frontend-id", std::to_string(dom));
  (void)xs_.Write(be_path + "/handle", std::to_string(devid));
  (void)xs_.Write(be_path + "/mac", std::to_string(mac));
  (void)xs_.Write(be_path + "/bridge", "xenbr0");
  (void)xs_.Write(be_path + "/state", XenbusStateValue(XenbusState::kInitialising));

  // Backend probes the new device and signals InitWait.
  (void)xs_.Read(be_path + "/frontend");
  (void)xs_.Read(be_path + "/mac");
  loop_.AdvanceBy(costs_.xenbus_transition);
  (void)xs_.Write(be_path + "/state", XenbusStateValue(XenbusState::kInitWait));

  // Frontend allocates rings from guest memory, grants them, Initialised.
  NEPHELE_RETURN_IF_ERROR(devices.net->AllocateRings());
  (void)xs_.Write(fe_path + "/tx-ring-ref", std::to_string(devices.net->tx_ring_gfn()));
  (void)xs_.Write(fe_path + "/rx-ring-ref", std::to_string(devices.net->rx_ring_gfn()));
  (void)xs_.Write(fe_path + "/event-channel", "4");
  loop_.AdvanceBy(costs_.xenbus_transition);
  (void)xs_.Write(fe_path + "/state", XenbusStateValue(XenbusState::kInitialised));

  // Backend maps the rings and connects (emits the udev add event; on the
  // boot path we run the hotplug work inline and the duplicate event is
  // ignored by its idempotent handler).
  (void)xs_.Read(fe_path + "/tx-ring-ref");
  (void)xs_.Read(fe_path + "/rx-ring-ref");
  loop_.AdvanceBy(costs_.xenbus_transition);
  DeviceId dev_id{dom, DeviceType::kVif, devid};
  NEPHELE_ASSIGN_OR_RETURN(Vif * vif, devices_.netback().ConnectDevice(dev_id, devices.net.get()));
  (void)xs_.Write(be_path + "/state", XenbusStateValue(XenbusState::kConnected));

  // Hotplug: udev wakeup + script run + switch attach.
  loop_.AdvanceBy(costs_.udev_event);
  NEPHELE_RETURN_IF_ERROR(HandleVifHotplug(UdevEvent{UdevEvent::Kind::kAdd, dev_id,
                                                     vif->port_name()}));

  // Frontend observes Connected.
  (void)xs_.Read(be_path + "/state");
  loop_.AdvanceBy(costs_.xenbus_transition);
  (void)xs_.Write(fe_path + "/state", XenbusStateValue(XenbusState::kConnected));
  return Status::Ok();
}

Status Toolstack::HandleVifHotplug(const UdevEvent& event) {
  if (event.kind != UdevEvent::Kind::kAdd) {
    return Status::Ok();
  }
  Vif* vif = devices_.netback().FindVif(event.device);
  if (vif == nullptr) {
    return ErrNotFound("vif for hotplug");
  }
  if (vif->attached_switch() != nullptr) {
    return Status::Ok();  // already handled (idempotent)
  }
  NEPHELE_RETURN_IF_ERROR(AttachVif(*vif));
  const std::string be_path =
      XsBackendPath(kDom0, "vif", event.device.dom, event.device.devid);
  (void)xs_.Write(be_path + "/hotplug-status", "connected");
  return Status::Ok();
}

Status Toolstack::AttachVif(Vif& vif) {
  loop_.AdvanceBy(costs_.switch_attach);
  NEPHELE_RETURN_IF_ERROR(default_switch_->Attach(&vif));
  vif.set_attached_switch(default_switch_);
  return Status::Ok();
}

Status Toolstack::SetupP9(DomId dom, const DomainConfig& config, GuestDevices& devices) {
  const std::string fe_path = XsFrontendPath(dom, "9pfs", 0);
  const std::string be_path = XsBackendPath(kDom0, "9pfs", dom, 0);
  (void)xs_.Write(fe_path + "/backend", be_path);
  (void)xs_.Write(fe_path + "/backend-id", "0");
  (void)xs_.Write(fe_path + "/state", XenbusStateValue(XenbusState::kInitialising));
  (void)xs_.Write(be_path + "/frontend", fe_path);
  (void)xs_.Write(be_path + "/frontend-id", std::to_string(dom));
  (void)xs_.Write(be_path + "/security_model", "none");
  (void)xs_.Write(be_path + "/path", config.p9_export);
  (void)xs_.Write(be_path + "/state", XenbusStateValue(XenbusState::kInitialising));

  // xl launches the QEMU 9pfs backend process for this guest (Sec. 5,
  // "on booting, xl launches the 9pfs filesystem backend as a process for
  // each new guest").
  NEPHELE_ASSIGN_OR_RETURN(P9BackendProcess * proc,
                           devices_.p9().LaunchForDomain(dom, config.p9_export));
  devices.p9 = proc;
  loop_.AdvanceBy(costs_.xenbus_transition);
  (void)xs_.Write(be_path + "/state", XenbusStateValue(XenbusState::kConnected));
  loop_.AdvanceBy(costs_.xenbus_transition);
  (void)xs_.Write(fe_path + "/state", XenbusStateValue(XenbusState::kConnected));
  NEPHELE_ASSIGN_OR_RETURN(devices.p9_root_fid, proc->Attach(dom));
  return Status::Ok();
}


Status Toolstack::SetupVbd(DomId dom, const DomainConfig& config, GuestDevices& devices) {
  const std::string fe_path = XsFrontendPath(dom, "vbd", 0);
  const std::string be_path = XsBackendPath(kDom0, "vbd", dom, 0);
  (void)xs_.Write(fe_path + "/backend", be_path);
  (void)xs_.Write(fe_path + "/backend-id", "0");
  (void)xs_.Write(fe_path + "/state", XenbusStateValue(XenbusState::kInitialising));
  (void)xs_.Write(be_path + "/frontend", fe_path);
  (void)xs_.Write(be_path + "/frontend-id", std::to_string(dom));
  (void)xs_.Write(be_path + "/sectors", std::to_string(config.vbd_size_mb * kMiB / 512));
  (void)xs_.Write(be_path + "/state", XenbusStateValue(XenbusState::kInitialising));

  DeviceId dev_id{dom, DeviceType::kVbd, 0};
  NEPHELE_RETURN_IF_ERROR(devices_.vbd().CreateDisk(dev_id, config.vbd_size_mb));
  devices.vbd = std::make_unique<VbdFrontend>(devices_.vbd(), dev_id);
  loop_.AdvanceBy(costs_.xenbus_transition);
  (void)xs_.Write(be_path + "/state", XenbusStateValue(XenbusState::kConnected));
  loop_.AdvanceBy(costs_.xenbus_transition);
  (void)xs_.Write(fe_path + "/state", XenbusStateValue(XenbusState::kConnected));
  return Status::Ok();
}

Result<DomId> Toolstack::BuildDomain(const DomainConfig& config,
                                     const std::function<Status(DomId)>& fill_memory) {
  hv_.ChargeHypercall();
  NEPHELE_ASSIGN_OR_RETURN(DomId dom, hv_.CreateDomain(config.name, config.vcpus));

  GuestDevices devices;
  // A failed boot unwinds with the destroy path's teardown body, so a failed
  // xl create leaves Dom0 exactly as it found it.
  auto fail = [&](Status s) -> Result<DomId> {
    TeardownDom0State(dom, config);
    (void)hv_.DestroyDomain(dom);
    return s;
  };

  if (Status s = PopulateGuestMemory(dom, config); !s.ok()) {
    return fail(s);
  }
  if (Status s = fill_memory(dom); !s.ok()) {
    return fail(s);
  }
  if (Status s = hv_.BuildPageTables(dom); !s.ok()) {
    return fail(s);
  }
  if (config.max_clones > 0) {
    hv_.ChargeHypercall();
    (void)hv_.SetCloneConfig(dom, /*enabled=*/true, config.max_clones);
  }

  (void)xs_.IntroduceDomain(dom);
  WriteBaseXenstoreEntries(dom, config);

  if (Status s = devices_.console().CreateConsole(dom); !s.ok()) {
    return fail(s);
  }
  if (config.with_vif) {
    if (Status s = SetupVif(dom, config, devices); !s.ok()) {
      return fail(s);
    }
  }
  if (config.with_p9fs) {
    if (Status s = SetupP9(dom, config, devices); !s.ok()) {
      return fail(s);
    }
  }
  if (config.with_vbd) {
    if (Status s = SetupVbd(dom, config, devices); !s.ok()) {
      return fail(s);
    }
  }

  guest_devices_[dom] = std::move(devices);
  configs_[dom] = config;

  hv_.ChargeHypercall();
  (void)hv_.UnpauseDomain(dom);
  return dom;
}

Result<DomId> Toolstack::CreateDomain(const DomainConfig& config) {
  const SimTime boot_start = loop_.Now();
  TraceSpan span = trace_.BeginSpan("toolstack/boot");
  // xl process startup + config parsing.
  loop_.AdvanceBy(costs_.xl_exec_overhead);

  if (name_check_enabled_) {
    // Vanilla xl scans every running VM's name — the superlinear growth
    // LightVM reported (Sec. 6.1).
    loop_.AdvanceBy(costs_.name_check_per_domain * static_cast<double>(configs_.size()));
    for (const auto& [id, cfg] : configs_) {
      if (cfg.name == config.name) {
        return ErrAlreadyExists("domain name in use");
      }
    }
  }

  NEPHELE_RETURN_IF_ERROR(f_create_domain_.Poke());
  NEPHELE_ASSIGN_OR_RETURN(DomId dom, BuildDomain(config, [&](DomId) {
    // Loading text+data from the image file into guest memory.
    loop_.AdvanceBy(costs_.page_copy *
                    static_cast<double>(config.image_text_pages + config.image_data_pages));
    return Status::Ok();
  }));
  m_domains_booted_.Increment();
  m_boot_ns_.Observe((loop_.Now() - boot_start).ns());
  span.AddArg("dom", static_cast<std::int64_t>(dom));
  return dom;
}

bool Toolstack::PauseForCopy(const Domain& d) {
  const bool was_running = d.state == DomainState::kRunning;
  (void)hv_.PauseDomain(d.id);
  return was_running;
}

Status Toolstack::ResumeIf(DomId dom, bool was_running) {
  return was_running ? hv_.UnpauseDomain(dom) : Status::Ok();
}

Result<DomainImage> Toolstack::SaveDomain(DomId dom) {
  const Domain* d = hv_.FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  auto cfg_it = configs_.find(dom);
  if (cfg_it == configs_.end()) {
    return ErrNotFound("domain not managed by toolstack");
  }
  const bool was_running = PauseForCopy(*d);
  loop_.AdvanceBy(costs_.save_fixed);
  // The whole allocation is serialized, used or not (Sec. 6.1).
  loop_.AdvanceBy(costs_.page_copy * static_cast<double>(d->tot_pages()));
  DomainImage image{cfg_it->second, d->tot_pages()};
  (void)ResumeIf(dom, was_running);
  return image;
}

Result<DomId> Toolstack::RestoreDomain(const DomainImage& image) {
  const SimTime restore_start = loop_.Now();
  loop_.AdvanceBy(costs_.xl_exec_overhead);
  loop_.AdvanceBy(costs_.restore_fixed);
  NEPHELE_ASSIGN_OR_RETURN(DomId dom, BuildDomain(image.config, [&](DomId) {
    // "The entire allocated VM memory is copied back from the image ...
    // regardless of the amount of memory that is actually used" (Sec. 6.1).
    loop_.AdvanceBy(costs_.page_copy * static_cast<double>(image.pages));
    return Status::Ok();
  }));
  m_domains_restored_.Increment();
  m_restore_ns_.Observe((loop_.Now() - restore_start).ns());
  return dom;
}

Status Toolstack::RefuseFamilyMigration(const Domain& d) {
  // Sec. 8: moving family members off-host would break the page sharing
  // potential; name the relatives so callers see exactly what blocks it.
  std::string msg = "domain '" + d.name + "' (domid " + std::to_string(d.id) +
                    ") has living family relations; cannot migrate: blocked by";
  if (d.parent != kDomInvalid) {
    const Domain* p = hv_.FindDomain(d.parent);
    msg += " parent '" + (p != nullptr ? p->name : std::string("?")) + "' (domid " +
           std::to_string(d.parent) + ")";
  }
  if (!d.children.empty()) {
    msg += d.parent != kDomInvalid ? " and children" : " children";
    bool first = true;
    for (DomId c : d.children) {
      const Domain* cd = hv_.FindDomain(c);
      msg += first ? " " : ", ";
      first = false;
      msg += "'" + (cd != nullptr ? cd->name : std::string("?")) + "' (domid " +
             std::to_string(c) + ")";
    }
  }
  return ErrFailedPrecondition(msg);
}

MigrationStream Toolstack::SerializePages(const Domain& d, const DomainConfig& config) {
  loop_.AdvanceBy(costs_.save_fixed);
  MigrationStream stream;
  stream.config = config;
  stream.pages = d.tot_pages();
  // Stop-and-copy: walk the p2m, shipping materialised page contents.
  // Not-present entries (a lazy clone snapshotted mid-stream) ship as zero.
  const FrameTable& frames = hv_.frames();
  for (Gfn gfn = 0; gfn < d.p2m.size(); ++gfn) {
    loop_.AdvanceBy(costs_.migrate_per_page);
    if (d.p2m[gfn].mfn == kInvalidMfn) {
      continue;
    }
    const FrameInfo& info = frames.info(d.p2m[gfn].mfn);
    if (info.data != nullptr) {
      stream.written_pages[gfn] =
          std::vector<std::uint8_t>(info.data->begin(), info.data->end());
      loop_.AdvanceBy(costs_.MigrateTransferCost(kPageSize));
    }
  }
  return stream;
}

Result<MigrationStream> Toolstack::BeginMigrateOut(DomId dom) {
  Domain* d = hv_.FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  auto cfg_it = configs_.find(dom);
  if (cfg_it == configs_.end()) {
    return ErrNotFound("domain not managed by toolstack");
  }
  if (d->parent != kDomInvalid || !d->children.empty()) {
    return RefuseFamilyMigration(*d);
  }
  if (pending_emigrations_.count(dom) != 0) {
    return ErrFailedPrecondition("emigration already in progress for domid " +
                                 std::to_string(dom));
  }
  pending_emigrations_[dom] = PauseForCopy(*d);
  return SerializePages(*d, cfg_it->second);
}

Status Toolstack::CompleteMigrateOut(DomId dom) {
  if (pending_emigrations_.erase(dom) == 0) {
    return ErrFailedPrecondition("no emigration in progress for domid " + std::to_string(dom));
  }
  return DestroyDomain(dom);
}

Status Toolstack::AbortMigrateOut(DomId dom) {
  auto it = pending_emigrations_.find(dom);
  if (it == pending_emigrations_.end()) {
    return ErrFailedPrecondition("no emigration in progress for domid " + std::to_string(dom));
  }
  const bool was_running = it->second;
  pending_emigrations_.erase(it);
  return ResumeIf(dom, was_running);
}

Result<MigrationStream> Toolstack::SnapshotDomain(DomId dom) {
  Domain* d = hv_.FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  auto cfg_it = configs_.find(dom);
  if (cfg_it == configs_.end()) {
    return ErrNotFound("domain not managed by toolstack");
  }
  const bool was_running = PauseForCopy(*d);
  MigrationStream stream = SerializePages(*d, cfg_it->second);
  (void)ResumeIf(dom, was_running);
  return stream;
}

Result<DomId> Toolstack::MigrateIn(const MigrationStream& stream) {
  loop_.AdvanceBy(costs_.restore_fixed);
  return BuildDomain(stream.config, [&](DomId dom) -> Status {
    // Replay the shipped pages; the builder then rebuilds the page tables
    // from the p2m with the new machine frame numbers (Sec. 5.2).
    for (const auto& [gfn, bytes] : stream.written_pages) {
      NEPHELE_RETURN_IF_ERROR(hv_.WriteGuestPage(dom, gfn, 0, bytes.data(), bytes.size()));
    }
    loop_.AdvanceBy(costs_.migrate_per_page * static_cast<double>(stream.pages));
    return Status::Ok();
  });
}

Status Toolstack::DestroyDomain(DomId dom) {
  auto cfg_it = configs_.find(dom);
  if (cfg_it == configs_.end()) {
    // No Dom0 state to unwind: a clone the second stage has not adopted
    // yet, or a domain only the hypervisor knows.
    return hv_.DestroyDomain(dom);
  }
  TeardownDom0State(dom, cfg_it->second);
  guest_devices_.erase(dom);
  configs_.erase(cfg_it);
  hv_.ChargeHypercall();
  m_domains_destroyed_.Increment();
  return hv_.DestroyDomain(dom);
}

GuestDevices* Toolstack::FindDevices(DomId dom) {
  auto it = guest_devices_.find(dom);
  return it == guest_devices_.end() ? nullptr : &it->second;
}

const DomainConfig* Toolstack::FindConfig(DomId dom) const {
  auto it = configs_.find(dom);
  return it == configs_.end() ? nullptr : &it->second;
}

std::vector<DomId> Toolstack::RunningDomains() const {
  std::vector<DomId> out;
  out.reserve(configs_.size());
  for (const auto& [id, cfg] : configs_) {
    out.push_back(id);
  }
  return out;
}

void Toolstack::AdoptClonedDomain(DomId child, const DomainConfig& config,
                                  GuestDevices devices) {
  configs_[child] = config;
  guest_devices_[child] = std::move(devices);
}

}  // namespace nephele
