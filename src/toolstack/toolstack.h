// The xl/libxl/libxc analogue: boots, saves, restores, migrates and destroys
// domains, runs the split-device negotiation, owns the guest-side frontend
// objects and the Dom0 memory accounting used by the Fig. 5 experiment.
// Create, restore and migrate-in differ only in their prologue and in how
// they fill guest memory; one private boot body does the rest. Emigration is
// stop-and-copy in Begin/Complete/Abort phases, which ClusterFabric::Migrate
// (src/core/fabric.h) drives. DestroyDomain is the one way to destroy a
// domain in any state, and one Dom0 teardown body (TeardownDom0State)
// unwinds a destroyed domain, a failed boot and an aborted second stage.

#ifndef SRC_TOOLSTACK_TOOLSTACK_H_
#define SRC_TOOLSTACK_TOOLSTACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/devices/device_manager.h"
#include "src/hypervisor/hypervisor.h"
#include "src/net/switch.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/obs/trace.h"
#include "src/toolstack/domain_config.h"
#include "src/xenstore/store.h"

namespace nephele {

// Guest-side device endpoints of one domain. Owned by the toolstack layer in
// this simulation (on real Xen they live inside the guest); the guest
// runtime borrows them.
struct GuestDevices {
  std::unique_ptr<NetFrontend> net;
  P9BackendProcess* p9 = nullptr;          // backend process serving this guest
  std::uint32_t p9_root_fid = 0;
  std::unique_ptr<VbdFrontend> vbd;
};

// A saved domain image (xl save analogue).
struct DomainImage {
  DomainConfig config;
  std::size_t pages = 0;  // full allocation is serialized (Sec. 6.1)
};

// A stop-and-copy migration stream (xl migrate analogue): the p2m-ordered
// page contents plus config, shipped to the target host. Only pages that
// were ever written are carried explicitly; the rest are zero.
struct MigrationStream {
  DomainConfig config;
  std::size_t pages = 0;
  std::map<Gfn, std::vector<std::uint8_t>> written_pages;
};

class Toolstack {
 public:
  Toolstack(Hypervisor& hv, XenstoreDaemon& xs, DeviceManager& devices, EventLoop& loop,
            const CostModel& costs, const SystemServices& services);

  // Where new vifs are attached. Defaults to an internal Bridge; the Fig. 4
  // and Fig. 7 setups install a Bond instead.
  void SetDefaultSwitch(HostSwitch* sw) { default_switch_ = sw; }
  HostSwitch* default_switch() { return default_switch_; }

  // xl create: the full boot path. Returns with the domain running (the
  // guest app itself starts through the runtime's boot event).
  Result<DomId> CreateDomain(const DomainConfig& config);

  // xl save / restore. Save pauses the domain while it copies and leaves it
  // in the state it found it: running, or paused.
  Result<DomainImage> SaveDomain(DomId dom);
  Result<DomId> RestoreDomain(const DomainImage& image);

  // xl destroy, for a domain in any lifecycle state. A domain the toolstack
  // manages loses its Dom0 state (TeardownDom0State) and its records, then
  // the domain itself. Any other domain (a clone the second stage has not
  // adopted yet, or one only the hypervisor knows) goes straight to
  // Hypervisor::DestroyDomain; the clone engine's destroy hook retires a
  // clone still owed its second stage as an abort, which unblocks its
  // parent. Returns the hypervisor's status: kNotFound when no such domain
  // exists, kPermissionDenied for Dom0.
  Status DestroyDomain(DomId dom);

  // The one Dom0 teardown body of a domain configured as `config`: vif,
  // 9pfs, vbd, console, then the domain, /vm, /libxl and backend Xenstore
  // subtrees, then the store connection, released only when Xenstore knows
  // the domain. Every step is best-effort, so a half-built domain (a failed
  // boot, an aborted second stage) unwinds with the same body. The domain
  // itself and the toolstack's records are left to the caller.
  void TeardownDom0State(DomId dom, const DomainConfig& config);

  // xl migrate: stop-and-copy emigration in two phases, the RWTH-OS
  // migration-framework shape; ClusterFabric::Migrate is the one chain that
  // drives it across hosts. Begin pauses the source and serializes its
  // pages in p2m order but leaves the domain intact so a failed transfer
  // can roll back. Exactly one of Complete (destroys the source — the copy
  // landed) or Abort (puts the source back in the state Begin found it)
  // must follow. Begin is refused with a typed kFailedPrecondition naming
  // the blocking relatives for domains with living family relations —
  // migrating a clone "would break the page sharing potential" (Sec. 8).
  Result<MigrationStream> BeginMigrateOut(DomId dom);
  Status CompleteMigrateOut(DomId dom);
  Status AbortMigrateOut(DomId dom);

  // Serializes a domain WITHOUT emigrating it: pause, snapshot, resume.
  // Family relations are allowed — the source keeps its sharing intact and
  // only the copy travels; the fabric's parent-image replication is built
  // on this. Not-present p2m entries (mid-stream lazy clones) ship as
  // zero pages.
  Result<MigrationStream> SnapshotDomain(DomId dom);

  // Immigration on the target host: rebuilds memory from the stream, then
  // rebuilds the page tables from the p2m (Sec. 5.2's stated purpose of the
  // p2m map) and reconnects devices.
  Result<DomId> MigrateIn(const MigrationStream& stream);

  Status PauseDomain(DomId dom) { return hv_.PauseDomain(dom); }
  Status UnpauseDomain(DomId dom) { return hv_.UnpauseDomain(dom); }

  GuestDevices* FindDevices(DomId dom);
  const DomainConfig* FindConfig(DomId dom) const;
  std::vector<DomId> RunningDomains() const;

  // Registers clone-side bookkeeping for a domain created by the clone
  // engine (called by xencloned, not by users).
  void AdoptClonedDomain(DomId child, const DomainConfig& config, GuestDevices devices);

  // Boot-time vif hotplug: udev event -> AttachVif + hotplug-status.
  Status HandleVifHotplug(const UdevEvent& event);

  // Attaches a connected, unattached vif to the default switch: charges
  // switch_attach, attaches and records the switch on the vif. Public
  // because xencloned reuses it for clone vifs.
  Status AttachVif(Vif& vif);

  // The uniqueness scan vanilla xl performs on the configured name; disabled
  // by default to match the paper's Fig. 4 methodology (names are generated
  // unique; see Sec. 6.1). Enable for the LightVM-style ablation.
  void SetNameCheckEnabled(bool enabled) { name_check_enabled_ = enabled; }

  // --- Dom0 memory accounting (Fig. 5). ---
  // The experiment splits 16 GiB into 4 GiB Dom0 + 12 GiB hypervisor pool.
  static constexpr std::size_t kDom0TotalBytes = 4ull * kGiB;
  // Kernel + Xen services + oxenstored baseline resident set.
  static constexpr std::size_t kDom0BaseServicesBytes = 600ull * kMiB;
  static constexpr std::size_t kDom0BytesPerDomainBookkeeping = 26 * 1024;
  std::size_t Dom0FreeBytes() const;

  // Auto-assigned guest addressing.
  MacAddr NextMac() { return 0x00163e000000ULL + next_mac_suffix_++; }
  Ipv4Addr NextIp() { return MakeIpv4(10, 8, 0, 2) + next_ip_suffix_++; }

 private:
  // Writes the Xenstore records a fresh domain gets (console, store, name,
  // /vm, /libxl and device entries), issuing real requests.
  void WriteBaseXenstoreEntries(DomId dom, const DomainConfig& config);
  Status SetupVif(DomId dom, const DomainConfig& config, GuestDevices& devices);
  Status SetupP9(DomId dom, const DomainConfig& config, GuestDevices& devices);
  Status SetupVbd(DomId dom, const DomainConfig& config, GuestDevices& devices);
  Status PopulateGuestMemory(DomId dom, const DomainConfig& config);
  // The boot body of create, restore and migrate-in: creates the domain and
  // its memory, runs `fill_memory` (image, saved image or stream), then
  // builds page tables, Xenstore entries and devices and unpauses it.
  Result<DomId> BuildDomain(const DomainConfig& config,
                            const std::function<Status(DomId)>& fill_memory);
  // Pauses `d` for a consistent copy (save, snapshot, emigration) and
  // returns whether it was running; ResumeIf later restores exactly that
  // state, so a domain that was paused stays paused.
  bool PauseForCopy(const Domain& d);
  Status ResumeIf(DomId dom, bool was_running);
  // The typed Sec. 8 refusal: kFailedPrecondition naming every blocking
  // relative (parent and children, with names and domids).
  Status RefuseFamilyMigration(const Domain& d);
  // Shared stop-and-copy serializer of BeginMigrateOut and SnapshotDomain.
  MigrationStream SerializePages(const Domain& d, const DomainConfig& config);

  Hypervisor& hv_;
  XenstoreDaemon& xs_;
  DeviceManager& devices_;
  EventLoop& loop_;
  const CostModel& costs_;

  TraceRecorder& trace_;
  Counter& m_domains_booted_;
  Counter& m_domains_restored_;
  Counter& m_domains_destroyed_;
  Histogram& m_boot_ns_;
  Histogram& m_restore_ns_;
  FaultPoint& f_create_domain_;

  Bridge builtin_bridge_;
  HostSwitch* default_switch_;

  std::map<DomId, GuestDevices> guest_devices_;
  std::map<DomId, DomainConfig> configs_;
  // Domains sitting paused between BeginMigrateOut and Complete/Abort;
  // the value records whether the domain was running before Begin paused
  // it, so Abort restores the exact prior state.
  std::map<DomId, bool> pending_emigrations_;
  bool name_check_enabled_ = false;
  std::uint64_t next_mac_suffix_ = 1;
  std::uint32_t next_ip_suffix_ = 0;
};

}  // namespace nephele

#endif  // SRC_TOOLSTACK_TOOLSTACK_H_
