// The simulated Xen-like hypervisor: owns machine memory, the domain table,
// and the notification fabric (event channels + VIRQs). Guests and the
// toolstack interact with it through the hypercall-shaped methods below; the
// cloning extension (CLONEOP) lives in src/core/clone_engine.h and operates
// on the same state. Migration copies a paused source in one pass, so guest
// writes need no log-dirty tracking.

#ifndef SRC_HYPERVISOR_HYPERVISOR_H_
#define SRC_HYPERVISOR_HYPERVISOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/hypervisor/domain.h"
#include "src/hypervisor/frame_table.h"
#include "src/hypervisor/types.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"

namespace nephele {

struct HypervisorConfig {
  // Machine memory managed by the hypervisor for guests (the paper's setup:
  // 16 GiB machine, 4 GiB to Dom0, 12 GiB to the hypervisor pool — Sec. 6.2).
  std::size_t pool_frames = 12 * kGiB / kPageSize;
};

class Hypervisor {
 public:
  Hypervisor(EventLoop& loop, const CostModel& costs, HypervisorConfig config,
             const SystemServices& services);

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  EventLoop& loop() { return loop_; }
  const CostModel& costs() const { return costs_; }
  FrameTable& frames() { return frames_; }
  const FrameTable& frames() const { return frames_; }
  const HypervisorConfig& config() const { return config_; }

  // ---------------------------------------------------------------------
  // domctl: domain lifecycle (toolstack-only on real Xen).
  // ---------------------------------------------------------------------
  Result<DomId> CreateDomain(const std::string& name, int vcpus);
  Status DestroyDomain(DomId dom);
  Status PauseDomain(DomId dom);
  Status UnpauseDomain(DomId dom);
  Status SetDomainName(DomId dom, const std::string& name);

  // Nephele domctl extension (Sec. 5.1): enables cloning and caps the clone
  // count for a domain. max_clones == 0 disables cloning.
  Status SetCloneConfig(DomId dom, bool enabled, std::uint32_t max_clones);
  // xencloned enables cloning globally before serving notifications.
  void SetCloningGloballyEnabled(bool enabled) { cloning_globally_enabled_ = enabled; }
  bool cloning_globally_enabled() const { return cloning_globally_enabled_; }

  Domain* FindDomain(DomId dom);
  const Domain* FindDomain(DomId dom) const;
  std::vector<DomId> DomainIds() const;
  std::size_t NumDomains() const { return domains_.size(); }

  // ---------------------------------------------------------------------
  // Memory hypercalls.
  // ---------------------------------------------------------------------
  // Appends `pages` fresh frames to the domain's p2m with the given role.
  // Returns the first new gfn.
  Result<Gfn> PopulatePhysmap(DomId dom, std::size_t pages, PageRole role);

  // Allocates one special page, records it on the domain, returns its gfn.
  Result<Gfn> AllocSpecialPage(DomId dom, PageRole role);

  // Builds the domain's page tables for its current p2m size (used at boot
  // and rebuilt for clones/restores). Frames are accounted as private.
  Status BuildPageTables(DomId dom);

  // Allocates one frame charged to `dom` without touching its p2m and
  // without the event-loop charge — the clone engine's allocation path (so
  // pool exhaustion and fault injection are funnelled through one place).
  // The engine plans a whole batch serially and charges virtual time per
  // child lane (max over lanes, not sum), so the frame_alloc cost lands on
  // the lane, not on the loop. The caller records the frame.
  Result<Mfn> StageGuestFrame(DomId dom) {
    NEPHELE_RETURN_IF_ERROR(f_frame_alloc_.Poke());
    return frames_.Alloc(dom);
  }

  // Guest memory access. Writes resolve COW faults (charging cost model
  // time) and are the only mutation path for shared frames.
  Status WriteGuestPage(DomId dom, Gfn gfn, std::size_t offset, const void* src,
                        std::size_t len);
  Status ReadGuestPage(DomId dom, Gfn gfn, std::size_t offset, void* out, std::size_t len) const;

  // Marks `count` pages starting at `gfn` dirty (resolving COW) without
  // materialising byte contents — the fast path used by guest allocators.
  Status TouchGuestPages(DomId dom, Gfn gfn, std::size_t count);

  // Resolves a COW fault for one page without writing (the clone_cow
  // subcommand uses this to un-share pages before breakpoint insertion).
  Status ForceCowResolve(DomId dom, Gfn gfn);

  // ---------------------------------------------------------------------
  // Grant-table hypercalls. (The grant *table* belongs to the granter; the
  // mapping side validates family relationship for kDomChild wildcards.)
  // ---------------------------------------------------------------------
  Result<GrantRef> GrantAccess(DomId granter, DomId grantee, Gfn gfn, bool readonly);
  Result<Gfn> MapGrant(DomId mapper, DomId granter, GrantRef ref);
  Status UnmapGrant(DomId mapper, DomId granter, GrantRef ref);
  Status EndGrantAccess(DomId granter, GrantRef ref);

  // ---------------------------------------------------------------------
  // Event-channel hypercalls.
  // ---------------------------------------------------------------------
  Result<EvtchnPort> EvtchnAllocUnbound(DomId dom, DomId remote);
  // Binds dom:<new port> to remote:remote_port (which must be unbound and
  // name `dom` or kDomChild). Also completes the remote entry.
  Result<EvtchnPort> EvtchnBindInterdomain(DomId dom, DomId remote, EvtchnPort remote_port);
  Result<EvtchnPort> EvtchnBindVirq(DomId dom, Virq virq);
  Status EvtchnSend(DomId dom, EvtchnPort port);
  Status EvtchnClose(DomId dom, EvtchnPort port);

  // Registers the upcall a domain runs when one of its ports fires.
  using EvtchnHandler = std::function<void(EvtchnPort)>;
  void SetEvtchnHandler(DomId dom, EvtchnHandler handler);

  // Raises a VIRQ towards a domain (delivered through its bound port).
  Status RaiseVirq(DomId dom, Virq virq);

  // ---------------------------------------------------------------------
  // Family relations (Sec. 4).
  // ---------------------------------------------------------------------
  bool IsDescendantOf(DomId maybe_child, DomId ancestor) const;
  bool SameFamily(DomId a, DomId b) const;

  // ---------------------------------------------------------------------
  // Accounting & stats.
  // ---------------------------------------------------------------------
  std::size_t FreePoolFrames() const { return frames_.free_frames(); }
  std::size_t TotalPoolFrames() const { return frames_.total_frames(); }
  // Frames charged to a domain: owned frames + its share of nothing (shared
  // frames are charged to nobody once in dom_cow, matching Xen accounting).
  std::size_t DomainOwnedFrames(DomId dom) const;

  // Charges one hypercall trap cost; public so higher layers (toolstack,
  // guest runtime) account their hypercalls uniformly.
  void ChargeHypercall() {
    loop_.AdvanceBy(costs_.hypercall);
    m_hypercalls_.Increment();
  }

  // Invoked after every resolved COW fault (`copied` is true when a fresh
  // frame was allocated, false for in-place ownership transfer). CloneEngine
  // installs this to fan faults out to its CloneObservers.
  using CowFaultHook = std::function<void(DomId dom, Gfn gfn, bool copied)>;
  void SetCowFaultHook(CowFaultHook hook) { cow_fault_hook_ = std::move(hook); }

  // Lazy-clone (post-copy) integration. The touch hook is invoked before a
  // write fault or grant is resolved on a page that is not writable: the
  // clone engine materialises the domain's own not-present entry (demand
  // fault) and pushes the page to any lazy children still deferring it, so
  // the subsequent COW resolution never mutates a frame a child has yet to
  // snapshot. The destroy hook runs at the start of DestroyDomain, before
  // frames are released, so the engine can finish (or cancel) streams whose
  // source or target is going away.
  using LazyTouchHook = std::function<Status(DomId dom, Gfn gfn)>;
  void SetLazyTouchHook(LazyTouchHook hook) { lazy_touch_hook_ = std::move(hook); }
  using DomainDestroyHook = std::function<void(DomId dom)>;
  void SetDomainDestroyHook(DomainDestroyHook hook) {
    domain_destroy_hook_ = std::move(hook);
  }

 private:
  Result<Mfn> AllocFrameFor(DomId dom);
  Status ResolveCowForWrite(Domain& d, Gfn gfn);
  // The COW fault tail both resolve paths share: charges the fault,
  // resolves the shared frame for `d` (copy or ownership transfer), counts
  // it, records the page dirty and fires the COW fault hook.
  Status ResolveCowFault(Domain& d, Gfn gfn);
  void ReleaseDomainFrames(Domain& d);
  // Destroy-time revocation of grant mappings held by and into `d`, keeping
  // the granter-side mappers lists and mapper-side grant_maps records in
  // sync (no dangling handles on either side of a dead domain).
  void ScrubGrantMappings(Domain& d);
  // The one event-channel sweep: unbinds every connected channel pointing
  // at (dom, port), transitively through the entries it unbinds. `port` ==
  // kInvalidPort stands for every port of a dying `dom`, whose own table is
  // skipped for that seed.
  void UnbindEvtchnPeers(DomId dom, EvtchnPort port);

  EventLoop& loop_;
  const CostModel& costs_;
  HypervisorConfig config_;
  FrameTable frames_;

  Counter& m_hypercalls_;
  Counter& m_cow_faults_;
  Counter& m_cow_pages_copied_;
  Counter& m_grant_accesses_;
  Counter& m_grant_end_accesses_;
  Counter& m_grant_maps_;
  Counter& m_grant_unmaps_;
  Counter& m_domains_created_;
  Counter& m_domains_destroyed_;
  FaultPoint& f_frame_alloc_;
  FaultPoint& f_cow_resolve_;
  FaultPoint& f_grant_access_;
  FaultPoint& f_evtchn_alloc_;
  CowFaultHook cow_fault_hook_;
  LazyTouchHook lazy_touch_hook_;
  DomainDestroyHook domain_destroy_hook_;

  std::map<DomId, std::unique_ptr<Domain>> domains_;
  std::map<DomId, EvtchnHandler> evtchn_handlers_;
  DomId next_domid_ = 1;  // 0 is Dom0
  bool cloning_globally_enabled_ = false;
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_HYPERVISOR_H_
