#include "src/hypervisor/hypervisor.h"

#include <algorithm>
#include <cassert>

#include "src/base/log.h"
#include "src/base/units.h"

namespace nephele {

Hypervisor::Hypervisor(EventLoop& loop, const CostModel& costs, HypervisorConfig config,
                       const SystemServices& services)
    : loop_(loop),
      costs_(costs),
      config_(config),
      frames_(config.pool_frames),
      m_hypercalls_(services.metrics.GetCounter("hypervisor/hypercalls")),
      m_cow_faults_(services.metrics.GetCounter("hypervisor/cow/faults")),
      m_cow_pages_copied_(services.metrics.GetCounter("hypervisor/cow/pages_copied")),
      m_grant_accesses_(services.metrics.GetCounter("hypervisor/grant/accesses")),
      m_grant_end_accesses_(services.metrics.GetCounter("hypervisor/grant/end_accesses")),
      m_grant_maps_(services.metrics.GetCounter("hypervisor/grant/maps")),
      m_grant_unmaps_(services.metrics.GetCounter("hypervisor/grant/unmaps")),
      m_domains_created_(services.metrics.GetCounter("hypervisor/domains/created")),
      m_domains_destroyed_(services.metrics.GetCounter("hypervisor/domains/destroyed")),
      f_frame_alloc_(*services.faults.GetPoint("hypervisor/frame_alloc")),
      f_cow_resolve_(*services.faults.GetPoint("hypervisor/cow_resolve")),
      f_grant_access_(*services.faults.GetPoint("hypervisor/grant_access")),
      f_evtchn_alloc_(*services.faults.GetPoint("hypervisor/evtchn_alloc")) {
  MetricsRegistry& metrics = services.metrics;
  // Pool occupancy gauges sample the frame table live at export time, so no
  // hot-path updates are needed anywhere in the allocator.
  metrics.GetGauge("hypervisor/frames/free").SetProvider([this] {
    return static_cast<std::int64_t>(frames_.free_frames());
  });
  metrics.GetGauge("hypervisor/frames/allocated").SetProvider([this] {
    return static_cast<std::int64_t>(frames_.allocated_frames());
  });
  metrics.GetGauge("hypervisor/frames/shared").SetProvider([this] {
    return static_cast<std::int64_t>(frames_.shared_frames());
  });
  metrics.GetGauge("hypervisor/frames/saved_by_sharing").SetProvider([this] {
    return static_cast<std::int64_t>(frames_.frames_saved_by_sharing());
  });
  metrics.GetGauge("hypervisor/domains/live").SetProvider([this] {
    return static_cast<std::int64_t>(domains_.size());
  });
  // Dom0 exists from boot; its memory lives outside the guest pool (the
  // 4 GiB / 12 GiB machine split of Sec. 6.2 is modelled in src/toolstack).
  auto dom0 = std::make_unique<Domain>();
  dom0->id = kDom0;
  dom0->name = "Domain-0";
  dom0->state = DomainState::kRunning;
  dom0->vcpus.resize(1);
  dom0->family_root = kDom0;
  domains_[kDom0] = std::move(dom0);
}

Result<DomId> Hypervisor::CreateDomain(const std::string& name, int vcpus) {
  if (vcpus <= 0) {
    return ErrInvalidArgument("vcpus must be positive");
  }
  DomId id = next_domid_++;
  auto d = std::make_unique<Domain>();
  d->id = id;
  d->name = name;
  d->state = DomainState::kCreated;
  d->vcpus.resize(static_cast<std::size_t>(vcpus));
  d->family_root = id;
  domains_[id] = std::move(d);
  m_domains_created_.Increment();
  return id;
}

void Hypervisor::ReleaseDomainFrames(Domain& d) {
  for (auto& entry : d.p2m) {
    if (entry.mfn != kInvalidMfn) {
      (void)frames_.Release(entry.mfn);
      loop_.AdvanceBy(costs_.frame_free);
      entry.mfn = kInvalidMfn;
    }
  }
  for (Mfn mfn : d.page_table_frames) {
    (void)frames_.Release(mfn);
    loop_.AdvanceBy(costs_.frame_free);
  }
  d.page_table_frames.clear();
  for (Mfn mfn : d.p2m_frames) {
    (void)frames_.Release(mfn);
    loop_.AdvanceBy(costs_.frame_free);
  }
  d.p2m_frames.clear();
  d.p2m.clear();
  d.lazy_deferred_pages = 0;
}

void Hypervisor::ScrubGrantMappings(Domain& d) {
  // Force-revoke the mappings the dying domain holds into other tables (the
  // granter's map_count must not stay pinned by a dead mapper) ...
  for (const auto& [granter_id, ref] : d.grant_maps) {
    if (Domain* g = FindDomain(granter_id); g != nullptr) {
      (void)g->grants.Unmap(ref, d.id);
    }
  }
  d.grant_maps.clear();
  // ... and the mappings others hold into the dying domain's table (their
  // mapper-side records would otherwise dangle).
  for (const auto& [ref, mappers] : d.grants.TakeMappings()) {
    for (DomId mapper_id : mappers) {
      if (Domain* m = FindDomain(mapper_id); m != nullptr) {
        auto it = std::find(m->grant_maps.begin(), m->grant_maps.end(),
                            std::make_pair(d.id, ref));
        if (it != m->grant_maps.end()) {
          m->grant_maps.erase(it);
        }
      }
    }
  }
}

void Hypervisor::UnbindEvtchnPeers(DomId dom, EvtchnPort port) {
  // Each connected entry pointing at a dead endpoint goes back to kUnbound
  // (Xen's __evtchn_close semantics: the surviving end keeps its
  // reservation but is no longer connected). That covers back-pointered
  // peers as well as the fan-in entries IDC rebinding and table cloning
  // create, which carry no back-pointer by design. An entry unbound here is
  // a dead endpoint in turn: it may be the hub of an IDC fan-in (later clone
  // siblings all bind to the first child's port), so entries pointing at it
  // are unbound as well. Each entry leaves kInterdomain at most once, so the
  // worklist terminates even on cyclic connection graphs, and the unbound
  // set is a closure that does not depend on visit order.
  std::vector<std::pair<DomId, EvtchnPort>> work = {{dom, port}};
  while (!work.empty()) {
    auto [wd, wp] = work.back();
    work.pop_back();
    const bool any_port = wp == kInvalidPort;
    for (auto& [id, other] : domains_) {
      if (any_port && id == wd) {
        continue;  // the dying domain's own table is not a peer of itself
      }
      EvtchnTable& t = other->evtchns;
      for (EvtchnPort p = 1; p < t.used_port_limit(); ++p) {
        EvtchnEntry& e = t.mutable_entry(p);
        if (e.state == EvtchnState::kInterdomain && e.remote_dom == wd &&
            (any_port || e.remote_port == wp)) {
          e.state = EvtchnState::kUnbound;
          e.remote_port = kInvalidPort;
          e.pending = false;
          work.emplace_back(id, p);
        }
      }
    }
  }
}

Status Hypervisor::DestroyDomain(DomId dom) {
  auto it = domains_.find(dom);
  if (it == domains_.end()) {
    return ErrNotFound("no such domain");
  }
  if (dom == kDom0) {
    return ErrPermissionDenied("cannot destroy Dom0");
  }
  Domain& d = *it->second;
  // Lazy-clone bookkeeping first: children still streaming from `d` must
  // snapshot their remaining pages before the source frames are released,
  // and a stream targeting `d` itself must be cancelled.
  if (domain_destroy_hook_) {
    domain_destroy_hook_(dom);
  }
  d.state = DomainState::kDying;
  ReleaseDomainFrames(d);
  ScrubGrantMappings(d);
  UnbindEvtchnPeers(dom, kInvalidPort);
  // Unlink from the family tree but keep ancestry queries working for
  // remaining members: children are re-parented to the grandparent.
  if (d.parent != kDomInvalid) {
    if (Domain* p = FindDomain(d.parent); p != nullptr) {
      std::erase(p->children, dom);
      for (DomId c : d.children) {
        if (Domain* cd = FindDomain(c); cd != nullptr) {
          cd->parent = d.parent;
          p->children.push_back(c);
        }
      }
    }
  } else {
    for (DomId c : d.children) {
      if (Domain* cd = FindDomain(c); cd != nullptr) {
        cd->parent = kDomInvalid;
      }
    }
  }
  evtchn_handlers_.erase(dom);
  domains_.erase(it);
  m_domains_destroyed_.Increment();
  return Status::Ok();
}

Status Hypervisor::PauseDomain(DomId dom) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  d->state = DomainState::kPaused;
  return Status::Ok();
}

Status Hypervisor::UnpauseDomain(DomId dom) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  d->state = DomainState::kRunning;
  // Deliver upcalls for events that fired while the domain was paused (the
  // pending bits survive the pause, as on real Xen).
  for (EvtchnPort port = 1; port < d->evtchns.used_port_limit(); ++port) {
    if (d->evtchns.ValidPort(port) && d->evtchns.entry(port).pending) {
      loop_.Post(SimDuration::Micros(2), [this, dom, port] {
        Domain* rd = FindDomain(dom);
        if (rd == nullptr || rd->IsPaused() || !rd->evtchns.ValidPort(port) ||
            !rd->evtchns.entry(port).pending) {
          return;
        }
        auto it = evtchn_handlers_.find(dom);
        if (it != evtchn_handlers_.end()) {
          rd->evtchns.mutable_entry(port).pending = false;
          it->second(port);
        }
      });
    }
  }
  return Status::Ok();
}

Status Hypervisor::SetDomainName(DomId dom, const std::string& name) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  d->name = name;
  return Status::Ok();
}

Status Hypervisor::SetCloneConfig(DomId dom, bool enabled, std::uint32_t max_clones) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  d->cloning_enabled = enabled;
  d->max_clones = max_clones;
  return Status::Ok();
}

Domain* Hypervisor::FindDomain(DomId dom) {
  auto it = domains_.find(dom);
  return it == domains_.end() ? nullptr : it->second.get();
}

const Domain* Hypervisor::FindDomain(DomId dom) const {
  auto it = domains_.find(dom);
  return it == domains_.end() ? nullptr : it->second.get();
}

std::vector<DomId> Hypervisor::DomainIds() const {
  std::vector<DomId> ids;
  ids.reserve(domains_.size());
  for (const auto& [id, d] : domains_) {
    ids.push_back(id);
  }
  return ids;
}

Result<Mfn> Hypervisor::AllocFrameFor(DomId dom) {
  NEPHELE_RETURN_IF_ERROR(f_frame_alloc_.Poke());
  auto mfn = frames_.Alloc(dom);
  if (mfn.ok()) {
    loop_.AdvanceBy(costs_.frame_alloc);
  }
  return mfn;
}

Result<Gfn> Hypervisor::PopulatePhysmap(DomId dom, std::size_t pages, PageRole role) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  Gfn first = static_cast<Gfn>(d->p2m.size());
  for (std::size_t i = 0; i < pages; ++i) {
    auto mfn = AllocFrameFor(dom);
    if (!mfn.ok()) {
      // Roll back partial allocation so accounting stays exact.
      for (std::size_t j = 0; j < i; ++j) {
        (void)frames_.Release(d->p2m.back().mfn);
        d->p2m.pop_back();
      }
      return mfn.status();
    }
    d->p2m.push_back(P2mEntry{*mfn, role, /*writable=*/role != PageRole::kImageText});
  }
  return first;
}

Result<Gfn> Hypervisor::AllocSpecialPage(DomId dom, PageRole role) {
  NEPHELE_ASSIGN_OR_RETURN(Gfn gfn, PopulatePhysmap(dom, 1, role));
  Domain* d = FindDomain(dom);
  switch (role) {
    case PageRole::kStartInfo:
      d->start_info_gfn = gfn;
      break;
    case PageRole::kConsoleRing:
      d->console_ring_gfn = gfn;
      break;
    case PageRole::kXenstoreRing:
      d->xenstore_ring_gfn = gfn;
      break;
    default:
      break;
  }
  return gfn;
}

Status Hypervisor::BuildPageTables(DomId dom) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  // Release any previous tables (rebuild path for restore/clone).
  for (Mfn mfn : d->page_table_frames) {
    (void)frames_.Release(mfn);
  }
  d->page_table_frames.clear();
  std::size_t pt_pages = PageTablePagesFor(d->p2m.size());
  for (std::size_t i = 0; i < pt_pages; ++i) {
    NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, AllocFrameFor(dom));
    d->page_table_frames.push_back(mfn);
    loop_.AdvanceBy(costs_.private_page_rewrite);
  }
  // p2m map storage: one 4-byte entry per page -> 1 frame per 1024 pages.
  for (Mfn mfn : d->p2m_frames) {
    (void)frames_.Release(mfn);
  }
  d->p2m_frames.clear();
  std::size_t p2m_pages = (d->p2m.size() * 4 + kPageSize - 1) / kPageSize;
  if (p2m_pages == 0) {
    p2m_pages = 1;
  }
  for (std::size_t i = 0; i < p2m_pages; ++i) {
    NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, AllocFrameFor(dom));
    d->p2m_frames.push_back(mfn);
  }
  return Status::Ok();
}

Status Hypervisor::ResolveCowForWrite(Domain& d, Gfn gfn) {
  P2mEntry& entry = d.p2m[gfn];
  if (entry.writable) {
    return Status::Ok();
  }
  if (entry.role == PageRole::kImageText) {
    return ErrPermissionDenied("write to read-only text page");
  }
  // Lazy-clone interlock: materialise this domain's own not-present entry
  // (demand fault) and push the page to lazy children still deferring it,
  // so the COW resolution below never mutates an unsnapshotted frame.
  if (lazy_touch_hook_) {
    NEPHELE_RETURN_IF_ERROR(lazy_touch_hook_(d.id, gfn));
  }
  if (entry.mfn == kInvalidMfn) {
    return ErrFailedPrecondition("write to not-present page with no lazy engine");
  }
  // COW fault (Sec. 4.1 / 5.2).
  NEPHELE_RETURN_IF_ERROR(f_cow_resolve_.Poke());
  return ResolveCowFault(d, gfn);
}

Status Hypervisor::ForceCowResolve(DomId dom, Gfn gfn) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (gfn >= d->p2m.size()) {
    return ErrOutOfRange("gfn outside p2m");
  }
  // Unlike a guest write fault, this privileged path may un-share read-only
  // text pages too: KFX needs clone-private text for breakpoint insertion
  // (Sec. 7.2).
  P2mEntry& entry = d->p2m[gfn];
  if (entry.writable) {
    return Status::Ok();
  }
  // Same lazy-clone interlock as the guest write-fault path.
  if (lazy_touch_hook_) {
    NEPHELE_RETURN_IF_ERROR(lazy_touch_hook_(dom, gfn));
  }
  if (entry.mfn == kInvalidMfn) {
    return ErrFailedPrecondition("cow resolve of not-present page with no lazy engine");
  }
  if (!frames_.IsShared(entry.mfn)) {
    entry.writable = true;
    return Status::Ok();
  }
  return ResolveCowFault(*d, gfn);
}

Status Hypervisor::ResolveCowFault(Domain& d, Gfn gfn) {
  P2mEntry& entry = d.p2m[gfn];
  loop_.AdvanceBy(costs_.cow_fault_fixed);
  NEPHELE_ASSIGN_OR_RETURN(auto res, frames_.ResolveCowWrite(entry.mfn, d.id));
  if (res.copied) {
    loop_.AdvanceBy(costs_.page_copy + costs_.frame_alloc);
    ++d.cow_pages_copied;
    m_cow_pages_copied_.Increment();
  }
  entry.mfn = res.mfn;
  entry.writable = true;
  ++d.cow_faults;
  m_cow_faults_.Increment();
  if (d.track_dirty) {
    d.dirty_since_clone.push_back(gfn);
  }
  if (cow_fault_hook_) {
    cow_fault_hook_(d.id, gfn, res.copied);
  }
  return Status::Ok();
}

Status Hypervisor::WriteGuestPage(DomId dom, Gfn gfn, std::size_t offset, const void* src,
                                  std::size_t len) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  // Checked as two comparisons: `offset + len` may wrap for hostile inputs.
  if (gfn >= d->p2m.size() || offset >= kPageSize || len > kPageSize - offset) {
    return ErrOutOfRange("guest write outside page");
  }
  NEPHELE_RETURN_IF_ERROR(ResolveCowForWrite(*d, gfn));
  frames_.WriteBytes(d->p2m[gfn].mfn, offset, static_cast<const std::uint8_t*>(src), len);
  return Status::Ok();
}

Status Hypervisor::ReadGuestPage(DomId dom, Gfn gfn, std::size_t offset, void* out,
                                 std::size_t len) const {
  const Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  // Checked as two comparisons: `offset + len` may wrap for hostile inputs.
  if (gfn >= d->p2m.size() || offset >= kPageSize || len > kPageSize - offset) {
    return ErrOutOfRange("guest read outside page");
  }
  Mfn mfn = d->p2m[gfn].mfn;
  if (mfn == kInvalidMfn) {
    // Deferred (lazy-clone) page: reads are served straight from the
    // parent's frame — the simulator's analogue of a read-only mapping of
    // the stream source. Side-effect-free, so oracles may read every page
    // of a partially-mapped child without perturbing the stream.
    const Domain* p = FindDomain(d->parent);
    if (p == nullptr || gfn >= p->p2m.size() || p->p2m[gfn].mfn == kInvalidMfn) {
      return ErrFailedPrecondition("read of not-present page with no stream source");
    }
    mfn = p->p2m[gfn].mfn;
  }
  frames_.ReadBytes(mfn, offset, static_cast<std::uint8_t*>(out), len);
  return Status::Ok();
}

Status Hypervisor::TouchGuestPages(DomId dom, Gfn gfn, std::size_t count) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  // Checked as two comparisons: `gfn + count` may wrap for hostile inputs.
  if (gfn > d->p2m.size() || count > d->p2m.size() - gfn) {
    return ErrOutOfRange("touch outside p2m");
  }
  for (std::size_t i = 0; i < count; ++i) {
    NEPHELE_RETURN_IF_ERROR(ResolveCowForWrite(*d, gfn + static_cast<Gfn>(i)));
    loop_.AdvanceBy(costs_.guest_touch_page);
  }
  return Status::Ok();
}

Result<GrantRef> Hypervisor::GrantAccess(DomId granter, DomId grantee, Gfn gfn, bool readonly) {
  Domain* g = FindDomain(granter);
  if (g == nullptr) {
    return ErrNotFound("no such granter");
  }
  if (gfn >= g->p2m.size()) {
    return ErrOutOfRange("gfn outside granter p2m");
  }
  if (g->p2m[gfn].mfn == kInvalidMfn) {
    // Granting a deferred (lazy-clone) page: materialise it first so the
    // mapping side never sees a hole.
    if (lazy_touch_hook_) {
      NEPHELE_RETURN_IF_ERROR(lazy_touch_hook_(granter, gfn));
    }
    if (g->p2m[gfn].mfn == kInvalidMfn) {
      return ErrFailedPrecondition("grant of not-present page");
    }
  }
  NEPHELE_RETURN_IF_ERROR(f_grant_access_.Poke());
  auto ref = g->grants.GrantAccess(grantee, gfn, readonly);
  if (ref.ok()) {
    m_grant_accesses_.Increment();
  }
  return ref;
}

Result<Gfn> Hypervisor::MapGrant(DomId mapper, DomId granter, GrantRef ref) {
  Domain* g = FindDomain(granter);
  if (g == nullptr) {
    return ErrNotFound("no such granter");
  }
  Domain* m = FindDomain(mapper);
  if (m == nullptr) {
    return ErrNotFound("no such mapper");
  }
  bool is_child = IsDescendantOf(mapper, granter);
  auto gfn = g->grants.Map(ref, mapper, is_child);
  if (gfn.ok()) {
    m->grant_maps.emplace_back(granter, ref);
    m_grant_maps_.Increment();
  }
  return gfn;
}

Status Hypervisor::UnmapGrant(DomId mapper, DomId granter, GrantRef ref) {
  Domain* g = FindDomain(granter);
  if (g == nullptr) {
    return ErrNotFound("no such granter");
  }
  Domain* m = FindDomain(mapper);
  if (m == nullptr) {
    return ErrNotFound("no such mapper");
  }
  Status s = g->grants.Unmap(ref, mapper);
  if (s.ok()) {
    auto it = std::find(m->grant_maps.begin(), m->grant_maps.end(),
                        std::make_pair(granter, ref));
    if (it != m->grant_maps.end()) {
      m->grant_maps.erase(it);
    }
    m_grant_unmaps_.Increment();
  }
  return s;
}

Status Hypervisor::EndGrantAccess(DomId granter, GrantRef ref) {
  Domain* g = FindDomain(granter);
  if (g == nullptr) {
    return ErrNotFound("no such granter");
  }
  Status s = g->grants.EndAccess(ref);
  if (s.ok()) {
    m_grant_end_accesses_.Increment();
  }
  return s;
}

Result<EvtchnPort> Hypervisor::EvtchnAllocUnbound(DomId dom, DomId remote) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  NEPHELE_RETURN_IF_ERROR(f_evtchn_alloc_.Poke());
  return d->evtchns.AllocUnbound(remote);
}

Result<EvtchnPort> Hypervisor::EvtchnBindInterdomain(DomId dom, DomId remote,
                                                     EvtchnPort remote_port) {
  Domain* d = FindDomain(dom);
  Domain* r = FindDomain(remote);
  if (d == nullptr || r == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (!r->evtchns.ValidPort(remote_port)) {
    return ErrNotFound("remote port not allocated");
  }
  const EvtchnEntry& reserved = r->evtchns.entry(remote_port);
  if (reserved.state != EvtchnState::kUnbound) {
    return ErrFailedPrecondition("remote port not unbound");
  }
  bool allowed = reserved.remote_dom == dom ||
                 (reserved.remote_dom == kDomChild && IsDescendantOf(dom, remote));
  if (!allowed) {
    return ErrPermissionDenied("port reserved for another domain");
  }
  NEPHELE_ASSIGN_OR_RETURN(EvtchnPort port, d->evtchns.AllocUnbound(remote));
  NEPHELE_RETURN_IF_ERROR(d->evtchns.BindInterdomain(port, remote, remote_port));
  // Looked up again: binding a domain to its own port grows the very table
  // the reservation lives in, which may move it.
  EvtchnEntry& re = r->evtchns.mutable_entry(remote_port);
  re.state = EvtchnState::kInterdomain;
  re.remote_dom = dom;
  re.remote_port = port;
  return port;
}

Result<EvtchnPort> Hypervisor::EvtchnBindVirq(DomId dom, Virq virq) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  return d->evtchns.BindVirq(virq);
}

Status Hypervisor::EvtchnSend(DomId dom, EvtchnPort port) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (!d->evtchns.ValidPort(port)) {
    return ErrNotFound("port not allocated");
  }
  const EvtchnEntry& e = d->evtchns.entry(port);
  if (e.state != EvtchnState::kInterdomain) {
    return ErrFailedPrecondition("port not connected");
  }
  Domain* remote = FindDomain(e.remote_dom);
  if (remote == nullptr) {
    return ErrNotFound("remote domain gone");
  }
  // The remote entry must itself still be a connected channel; a stale or
  // out-of-range remote_port (peer closed, rebound, or a corrupted handle)
  // must not have its pending bit forced. Note the remote entry need not
  // point back at (dom, port): IDC fan-in entries are many-to-one by design.
  if (e.remote_port >= remote->evtchns.max_ports()) {
    return ErrFailedPrecondition("remote port out of range");
  }
  if (remote->evtchns.entry(e.remote_port).state != EvtchnState::kInterdomain) {
    return ErrFailedPrecondition("remote port not connected");
  }
  remote->evtchns.mutable_entry(e.remote_port).pending = true;
  DomId remote_id = remote->id;
  EvtchnPort remote_port = e.remote_port;
  // Upcall delivery is asynchronous, like a real interrupt.
  loop_.Post(SimDuration::Micros(2), [this, remote_id, remote_port] {
    Domain* rd = FindDomain(remote_id);
    if (rd == nullptr || rd->IsPaused()) {
      return;  // pending bit stays set; delivered on unpause by the runtime
    }
    auto it = evtchn_handlers_.find(remote_id);
    if (it != evtchn_handlers_.end()) {
      rd->evtchns.mutable_entry(remote_port).pending = false;
      it->second(remote_port);
    }
  });
  return Status::Ok();
}

Status Hypervisor::EvtchnClose(DomId dom, EvtchnPort port) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  NEPHELE_RETURN_IF_ERROR(d->evtchns.Close(port));
  // Unbind every connected channel that still pointed at the closed port —
  // the back-pointered peer of a mutual binding, plus any fan-in entries
  // (IDC rebinding, cloned tables) that reference it without one. Leaving
  // them connected would let a later send set a pending bit on whatever
  // reuses the port.
  UnbindEvtchnPeers(dom, port);
  return Status::Ok();
}

void Hypervisor::SetEvtchnHandler(DomId dom, EvtchnHandler handler) {
  evtchn_handlers_[dom] = std::move(handler);
}

Status Hypervisor::RaiseVirq(DomId dom, Virq virq) {
  Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  NEPHELE_ASSIGN_OR_RETURN(EvtchnPort port, d->evtchns.FindVirqPort(virq));
  d->evtchns.mutable_entry(port).pending = true;
  loop_.Post(SimDuration::Micros(2), [this, dom, port] {
    Domain* rd = FindDomain(dom);
    if (rd == nullptr) {
      return;
    }
    auto it = evtchn_handlers_.find(dom);
    if (it != evtchn_handlers_.end()) {
      rd->evtchns.mutable_entry(port).pending = false;
      it->second(port);
    }
  });
  return Status::Ok();
}

bool Hypervisor::IsDescendantOf(DomId maybe_child, DomId ancestor) const {
  const Domain* d = FindDomain(maybe_child);
  while (d != nullptr && d->parent != kDomInvalid) {
    if (d->parent == ancestor) {
      return true;
    }
    d = FindDomain(d->parent);
  }
  return false;
}

bool Hypervisor::SameFamily(DomId a, DomId b) const {
  const Domain* da = FindDomain(a);
  const Domain* db = FindDomain(b);
  if (da == nullptr || db == nullptr) {
    return false;
  }
  return da->family_root == db->family_root;
}

std::size_t Hypervisor::DomainOwnedFrames(DomId dom) const {
  const Domain* d = FindDomain(dom);
  if (d == nullptr) {
    return 0;
  }
  std::size_t n = 0;
  for (const auto& e : d->p2m) {
    if (e.mfn != kInvalidMfn && frames_.OwnerOf(e.mfn) == dom) {
      ++n;
    }
  }
  n += d->page_table_frames.size();
  n += d->p2m_frames.size();
  return n;
}

}  // namespace nephele
