#include "src/core/clone_engine.h"

#include <algorithm>
#include <limits>

#include "src/base/log.h"
#include "src/base/units.h"

namespace nephele {

CloneEngine::CloneEngine(Hypervisor& hv, const SystemServices& services,
                         const LazyCloneConfig& lazy)
    : hv_(hv),
      lazy_cfg_(lazy),
      ring_(256),
      trace_(services.trace),
      m_clones_(services.metrics.GetCounter("clone/clones_total")),
      m_batches_(services.metrics.GetCounter("clone/batches_total")),
      m_pages_shared_(services.metrics.GetCounter("clone/stage1/pages_shared")),
      m_pages_shared_first_(services.metrics.GetCounter("clone/stage1/pages_shared_first")),
      m_pages_shared_again_(services.metrics.GetCounter("clone/stage1/pages_shared_again")),
      m_pages_private_copied_(services.metrics.GetCounter("clone/stage1/pages_private_copied")),
      m_pages_idc_shared_(services.metrics.GetCounter("clone/stage1/pages_idc_shared")),
      m_resets_(services.metrics.GetCounter("clone/reset/count")),
      m_reset_pages_restored_(services.metrics.GetCounter("clone/reset/pages_restored")),
      m_explicit_cow_pages_(services.metrics.GetCounter("clone/cow/explicit_pages")),
      m_ring_backpressure_(services.metrics.GetCounter("clone/ring/backpressure")),
      m_rolled_back_(services.metrics.GetCounter("clone/rolled_back")),
      m_lazy_clones_(services.metrics.GetCounter("clone/lazy/clones")),
      m_lazy_deferred_pages_(services.metrics.GetCounter("clone/lazy/deferred_pages")),
      m_streamed_pages_(services.metrics.GetCounter("clone/streamed_pages")),
      m_lazy_stream_batches_(services.metrics.GetCounter("clone/lazy/stream_batches")),
      m_lazy_stream_stalls_(services.metrics.GetCounter("clone/lazy/stream_stalls")),
      m_lazy_demand_faults_(services.metrics.GetCounter("clone/lazy/demand_faults")),
      g_lazy_pending_pages_(services.metrics.GetGauge("clone/lazy_pending_pages")),
      m_stage1_ns_(services.metrics.GetHistogram("clone/stage1/duration_ns")),
      m_stage2_ns_(services.metrics.GetHistogram("clone/stage2/duration_ns")),
      m_completions_(services.metrics.GetCounter("clone/completions")),
      m_child_resumes_(services.metrics.GetCounter("clone/resume/child_total")),
      m_parent_resumes_(services.metrics.GetCounter("clone/resume/parent_total")),
      m_fork_to_resume_ns_(services.metrics.GetHistogram("clone/fork_to_resume/duration_ns")),
      f_stage1_create_(*services.faults.GetPoint("clone/stage1/create_domain")),
      f_stage1_memory_(*services.faults.GetPoint("clone/stage1/memory")),
      f_stage1_share_(*services.faults.GetPoint("clone/stage1/share")),
      f_stage1_page_tables_(*services.faults.GetPoint("clone/stage1/page_tables")),
      f_stage1_grants_(*services.faults.GetPoint("clone/stage1/grants")),
      f_stage1_evtchns_(*services.faults.GetPoint("clone/stage1/evtchns")),
      f_reset_(*services.faults.GetPoint("clone/reset")),
      f_lazy_stream_(*services.faults.GetPoint("lazy/stream")),
      f_lazy_demand_(*services.faults.GetPoint("lazy/demand_fault")) {
  // Sampled at export time: the sum of every streaming child's deferred
  // ledger. Reaching 0 is how dashboards (and the stream-stall alarm rule)
  // see a batch finish arriving.
  g_lazy_pending_pages_.SetProvider([this] {
    std::int64_t pending = 0;
    for (const auto& [child, st] : streaming_) {
      (void)st;
      const Domain* d = hv_.FindDomain(child);
      if (d != nullptr) {
        pending += static_cast<std::int64_t>(d->lazy_deferred_pages);
      }
    }
    return pending;
  });
  // COW faults are resolved inside the hypervisor; surface them to clone
  // observers (metrics, fuzzing harnesses) through the engine.
  hv_.SetCowFaultHook([this](DomId dom, Gfn gfn, bool copied) {
    for (CloneObserver* obs : observers_) {
      obs->OnCowFault(dom, gfn, copied);
    }
  });
  // Demand path of post-copy cloning: any touch of a not-present entry (and
  // any parent write that would outrun its children's streams) lands here
  // before the regular COW machinery looks at the entry.
  hv_.SetLazyTouchHook([this](DomId dom, Gfn gfn) { return OnLazyTouch(dom, gfn); });
  hv_.SetDomainDestroyHook([this](DomId dom) { OnDomainDestroy(dom); });
}

void CloneEngine::AddObserver(CloneObserver* observer) { observers_.push_back(observer); }

void CloneEngine::RemoveObserver(CloneObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void CloneEngine::SetWorkerThreads(unsigned n) {
  if (n == 0) {
    n = 1;
  }
  if (n == worker_threads_) {
    return;
  }
  worker_threads_ = n;
  // Recreated lazily on the next multi-threaded batch. Tearing down eagerly
  // keeps systems that only ever clone serially free of threads.
  pool_.reset();
}

std::size_t CloneEngine::PendingStreamPages(DomId child) const {
  if (streaming_.count(child) == 0) {
    return 0;
  }
  const Domain* d = hv_.FindDomain(child);
  return d == nullptr ? 0 : d->lazy_deferred_pages;
}

void CloneEngine::ComputeHotSet(const Domain& parent, const CloneRequest& req,
                                BatchPlan& batch) {
  for (Gfn gfn : req.hot_pages) {
    if (gfn < parent.p2m.size()) {
      batch.hot.insert(gfn);
    }
  }
  // Seed up to max_hot_pages recently-touched pages beyond the explicit
  // hint: the dirty-since-clone list first (clone-of-clone parents track
  // it), then still-writable kData pages — a page is writable exactly when
  // it saw a write since it last entered COW sharing, which makes
  // writability the touch signal for root parents and re-cloned parents
  // alike.
  std::size_t seeded = 0;
  const std::size_t cap = lazy_cfg_.max_hot_pages;
  for (Gfn gfn : parent.dirty_since_clone) {
    if (seeded >= cap) {
      break;
    }
    if (gfn < parent.p2m.size() && batch.hot.insert(gfn).second) {
      ++seeded;
    }
  }
  for (Gfn gfn = 0; gfn < parent.p2m.size() && seeded < cap; ++gfn) {
    const P2mEntry& pe = parent.p2m[gfn];
    if (pe.role == PageRole::kData && pe.writable && batch.hot.insert(gfn).second) {
      ++seeded;
    }
  }
}

void CloneEngine::MaterializePage(Domain& parent, Domain& child, Gfn gfn) {
  FrameTable& frames = hv_.frames();
  const CostModel& costs = hv_.costs();
  P2mEntry& pe = parent.p2m[gfn];
  // The plan flipped the parent pte read-only when it deferred the page, so
  // the frame still holds the clone-time snapshot. Sharing it now is exactly
  // the share stage 1 skipped, at the same per-page cost.
  if (frames.Share(pe.mfn, 1).value_or(false)) {
    hv_.loop().AdvanceBy(costs.page_share_first);
    m_pages_shared_first_.Increment();
  } else {
    hv_.loop().AdvanceBy(costs.page_share_again);
    m_pages_shared_again_.Increment();
  }
  m_pages_shared_.Increment();
  child.p2m[gfn].mfn = pe.mfn;
  // writable stays false: from here on the entry COWs like any shared page.
  if (child.lazy_deferred_pages > 0) {
    --child.lazy_deferred_pages;
  }
}

std::size_t CloneEngine::DrainStream(StreamState& st, Domain& parent, Domain& child,
                                     std::size_t max_pages) {
  std::size_t done = 0;
  while (done < max_pages && st.cursor < st.deferred.size()) {
    const Gfn gfn = st.deferred[st.cursor++];
    if (child.p2m[gfn].mfn != kInvalidMfn) {
      continue;  // a demand fault got here first
    }
    MaterializePage(parent, child, gfn);
    ++done;
  }
  m_streamed_pages_.Increment(done);
  return done;
}

Status CloneEngine::RunStreamBatch(DomId child_id, std::size_t* out_pages) {
  if (out_pages != nullptr) {
    *out_pages = 0;
  }
  auto it = streaming_.find(child_id);
  if (it == streaming_.end()) {
    return Status::Ok();
  }
  StreamState& st = it->second;
  Domain* child = hv_.FindDomain(child_id);
  Domain* parent = hv_.FindDomain(st.parent);
  if (child == nullptr || parent == nullptr) {
    // Defensive only: the destroy hook retires streams before either side
    // of one can vanish.
    streaming_.erase(it);
    return Status::Ok();
  }
  Status batch_status = f_lazy_stream_.Poke();
  if (!batch_status.ok()) {
    // A stall, not a death: nothing was streamed, the child stays streaming
    // and the next batch (tick, pump or FinishStreaming retry) resumes.
    m_lazy_stream_stalls_.Increment();
    return batch_status;
  }
  hv_.loop().AdvanceBy(hv_.costs().lazy_stream_batch_fixed);
  m_lazy_stream_batches_.Increment();
  const std::size_t done = DrainStream(
      st, *parent, *child, std::max<std::size_t>(lazy_cfg_.stream_batch_pages, 1));
  if (out_pages != nullptr) {
    *out_pages = done;
  }
  if (child->lazy_deferred_pages == 0) {
    streaming_.erase(it);
  }
  return Status::Ok();
}

Status CloneEngine::FinishStreaming(DomId child) {
  while (streaming_.count(child) > 0) {
    NEPHELE_RETURN_IF_ERROR(RunStreamBatch(child, nullptr));
  }
  return Status::Ok();
}

std::size_t CloneEngine::StreamPump(std::size_t batches) {
  std::size_t total = 0;
  DomId next = 0;
  for (std::size_t b = 0; b < batches && !streaming_.empty(); ++b) {
    auto it = streaming_.lower_bound(next);
    if (it == streaming_.end()) {
      it = streaming_.begin();
    }
    const DomId child = it->first;
    next = static_cast<DomId>(child + 1);
    std::size_t pages = 0;
    (void)RunStreamBatch(child, &pages);  // a stall consumes the batch slot
    total += pages;
  }
  return total;
}

void CloneEngine::ScheduleStreamTick(DomId child) {
  hv_.loop().Post(kLazyStreamInterval, [this, child] {
    if (streaming_.count(child) == 0) {
      return;  // finished (or torn down) before the tick fired
    }
    (void)RunStreamBatch(child, nullptr);
    if (streaming_.count(child) > 0) {
      // Re-arm, including after a stall: injected stream faults model
      // transient backend pressure, so the prefetcher retries.
      ScheduleStreamTick(child);
    }
  });
}

Status CloneEngine::OnLazyTouch(DomId dom, Gfn gfn) {
  // Case 1: a streaming child touches its own not-present entry — a demand
  // fault. The page jumps the stream queue and materialises on the spot;
  // the caller's COW machinery then treats it like any shared page.
  // Case 2: a parent is about to COW-write a page its streaming children
  // still defer. The write would change the frame the children read through,
  // so the clone-time snapshot is pushed to them first. A fault here fails
  // the parent's write with everything still deferred; a retry resumes with
  // whatever was already pushed.
  // A streaming child has no streaming children of its own (Clone() finishes
  // a parent's stream first), so at most one of the two cases applies.
  for (auto it = streaming_.begin(); it != streaming_.end();) {
    auto stream = it++;  // DemandFault may retire `stream`
    if (stream->first == dom || stream->second.parent == dom) {
      NEPHELE_RETURN_IF_ERROR(DemandFault(stream, gfn));
    }
  }
  return Status::Ok();
}

Status CloneEngine::DemandFault(StreamMap::iterator it, Gfn gfn) {
  Domain* child = hv_.FindDomain(it->first);
  Domain* parent = hv_.FindDomain(it->second.parent);
  if (child == nullptr || parent == nullptr || gfn >= child->p2m.size() ||
      child->p2m[gfn].mfn != kInvalidMfn) {
    return Status::Ok();
  }
  NEPHELE_RETURN_IF_ERROR(f_lazy_demand_.Poke());
  hv_.loop().AdvanceBy(hv_.costs().lazy_demand_fault_fixed);
  MaterializePage(*parent, *child, gfn);
  m_lazy_demand_faults_.Increment();
  if (child->lazy_deferred_pages == 0) {
    streaming_.erase(it);
  }
  return Status::Ok();
}

void CloneEngine::OnDomainDestroy(DomId dom) {
  for (CloneObserver* obs : observers_) {
    obs->OnDestroy(dom);
  }
  // A child still owed its second stage (queued for xencloned, waiting for
  // its vif's udev event, or unwound by a failed second stage) dies as an
  // abort: it retires its outstanding slot like a completion would, so the
  // parent is never left paused on a child that no longer exists.
  if (auto it = pending_children_.find(dom); it != pending_children_.end()) {
    const DomId parent_id = it->second.parent;
    pending_children_.erase(it);
    m_rolled_back_.Increment();
    for (CloneObserver* obs : observers_) {
      obs->OnCloneAborted(parent_id, dom);
    }
    RetireOutstanding(parent_id);
  }
  // A dying child abandons its stream: its not-present entries hold no
  // frames, so there is nothing to unwind.
  streaming_.erase(dom);
  // A dying parent is the stream source of its lazy children: everything
  // they still defer materialises now, before the parent's frames go away.
  // The destruction is already committed, so no fault pokes — this path
  // cannot fail.
  Domain* parent = hv_.FindDomain(dom);
  for (auto it = streaming_.begin(); it != streaming_.end();) {
    if (it->second.parent != dom) {
      ++it;
      continue;
    }
    Domain* child = hv_.FindDomain(it->first);
    if (child != nullptr && parent != nullptr) {
      DrainStream(it->second, *parent, *child, std::numeric_limits<std::size_t>::max());
    }
    it = streaming_.erase(it);
  }
}

void CloneEngine::CloneVcpus(const Domain& parent, Domain& child) {
  child.vcpus = parent.vcpus;
  for (auto& v : child.vcpus) {
    // The hypercall return value: 0 for the parent, 1 for any child
    // (Sec. 5.2).
    v.rax = 1;
  }
}

Status CloneEngine::PlanChildCommon(Domain& parent, ChildPlan& cp) {
  cp.lane += hv_.costs().clone_stage1_fixed;
  // struct domain initialisation by copy+edit of the parent's (Sec. 5).
  NEPHELE_RETURN_IF_ERROR(f_stage1_create_.Poke());
  NEPHELE_ASSIGN_OR_RETURN(DomId child_id,
                           hv_.CreateDomain(/*name=*/"", static_cast<int>(parent.vcpus.size())));
  // From here on the child exists: record it before anything can fail so the
  // batch rollback always sees it.
  cp.id = child_id;
  cp.child = hv_.FindDomain(child_id);
  Domain& child = *cp.child;

  child.parent = parent.id;
  child.family_root = parent.family_root;
  child.cloning_enabled = parent.cloning_enabled;
  child.max_clones = parent.max_clones;
  child.start_info_gfn = parent.start_info_gfn;
  child.console_ring_gfn = parent.console_ring_gfn;
  child.xenstore_ring_gfn = parent.xenstore_ring_gfn;
  child.track_dirty = true;
  child.dirty_since_clone.clear();
  parent.children.push_back(child_id);
  ++parent.clones_created;

  CloneVcpus(parent, child);
  cp.lane += hv_.costs().vcpu_clone * static_cast<double>(child.vcpus.size());
  return Status::Ok();
}

Status CloneEngine::PlanFirstChild(Domain& parent, BatchPlan& batch, ChildPlan& cp) {
  NEPHELE_RETURN_IF_ERROR(PlanChildCommon(parent, cp));
  batch.first_child = cp.id;
  NEPHELE_RETURN_IF_ERROR(f_stage1_memory_.Poke());
  const CostModel& costs = hv_.costs();
  FrameTable& frames = hv_.frames();

  // The only full per-page scan of the batch: classify every parent page,
  // poking faults in page order, and record the batch-wide facts later
  // children and the rollback reuse. The page counts are those facts (plus
  // the first shares) and reach the registry once, after the walk — on a
  // failed walk too, so a fault leaves the counters at exactly the per-page
  // prefix.
  std::size_t first_shares = 0;
  const Status walked = [&]() -> Status {
    for (Gfn gfn = 0; gfn < parent.p2m.size(); ++gfn) {
      P2mEntry& pe = parent.p2m[gfn];
      if (IsPrivateRole(pe.role)) {
        // Private page: duplicated (or rewritten) for the child (Sec. 4.1).
        NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, hv_.StageGuestFrame(cp.id));
        cp.private_mfns.push_back(mfn);
        batch.private_gfns.push_back(gfn);
        SimDuration cost = costs.frame_alloc + (frames.info(pe.mfn).data != nullptr
                                                    ? costs.page_copy
                                                    : costs.private_page_rewrite);
        cp.lane += cost;
        batch.private_cost += cost;
        continue;
      }
      if (batch.lazy && pe.role == PageRole::kData && batch.hot.count(gfn) == 0) {
        // Deferred: every child's entry will be not-present — no share, no
        // fault poke, no lane cost. That skipped cost is the entire
        // time-to-first-request win. The parent pte still turns read-only
        // NOW, so a parent write demand-pushes the page to the children
        // before changing it (they must keep seeing the clone-time snapshot).
        batch.deferred_gfns.push_back(gfn);
        if (pe.writable) {
          batch.writable_flips.push_back(gfn);
          pe.writable = false;
        }
        continue;
      }
      NEPHELE_RETURN_IF_ERROR(f_stage1_share_.Poke());
      // The batch takes its share references only at commit, and no staging
      // job runs during this walk, so the frame's pre-batch state decides
      // between a first share and a re-share.
      const bool already_shared = frames.IsShared(pe.mfn);
      if (pe.role == PageRole::kIdcShared) {
        // IDC regions stay writable on both sides: true sharing, no COW
        // (Sec. 5.2.2 — ownership still moves to dom_cow like any shared
        // page).
        cp.lane += already_shared ? costs.page_share_again : costs.page_share_first;
        ++batch.idc_pages;
        continue;
      }
      // Regular memory: share copy-on-write. Writable pages are marked
      // read-only and will be COWed on the next write by either side.
      if (already_shared) {
        cp.lane += costs.page_share_again;
      } else {
        cp.lane += costs.page_share_first;
        ++first_shares;
      }
      ++batch.regular_pages;
      if (pe.writable) {
        batch.writable_flips.push_back(gfn);
        pe.writable = false;
      }
    }
    return Status::Ok();
  }();
  m_pages_private_copied_.Increment(batch.private_gfns.size());
  m_lazy_deferred_pages_.Increment(batch.deferred_gfns.size());
  m_pages_idc_shared_.Increment(batch.idc_pages);
  m_pages_shared_first_.Increment(first_shares);
  m_pages_shared_again_.Increment(batch.regular_pages - first_shares);
  m_pages_shared_.Increment(batch.regular_pages);
  NEPHELE_RETURN_IF_ERROR(walked);
  return PlanTables(parent, cp);
}

void CloneEngine::AccountPartialScan(const Domain& parent, const BatchPlan& batch,
                                     Gfn end_gfn, SimDuration& lane) {
  const CostModel& costs = hv_.costs();
  const FrameTable& frames = hv_.frames();
  std::size_t priv = 0;
  std::size_t idc = 0;
  std::size_t regular = 0;
  std::size_t deferred = 0;  // also the cursor into batch.deferred_gfns
  for (Gfn gfn = 0; gfn < end_gfn; ++gfn) {
    const P2mEntry& pe = parent.p2m[gfn];
    if (IsPrivateRole(pe.role)) {
      ++priv;
      lane += costs.frame_alloc + (frames.info(pe.mfn).data != nullptr
                                       ? costs.page_copy
                                       : costs.private_page_rewrite);
    } else if (deferred < batch.deferred_gfns.size() && batch.deferred_gfns[deferred] == gfn) {
      ++deferred;
    } else {
      lane += costs.page_share_again;
      if (pe.role == PageRole::kIdcShared) {
        ++idc;
      } else {
        ++regular;
      }
    }
  }
  m_pages_private_copied_.Increment(priv);
  m_pages_idc_shared_.Increment(idc);
  m_pages_shared_again_.Increment(regular);
  m_pages_shared_.Increment(regular);
  m_lazy_deferred_pages_.Increment(deferred);
}

Status CloneEngine::PlanNextChild(Domain& parent, BatchPlan& batch, ChildPlan& cp) {
  NEPHELE_RETURN_IF_ERROR(PlanChildCommon(parent, cp));
  NEPHELE_RETURN_IF_ERROR(f_stage1_memory_.Poke());
  const CostModel& costs = hv_.costs();

  // The first child decided every page: it copied the private gfns,
  // deferred the lazy ones and shared the rest, so every share of this
  // child is a re-share and no per-page decisions remain. The scan reduces
  // to the private and deferred gfns (both ascending) plus bulk fault pokes
  // for the share runs between them. The failure paths recompute the exact
  // per-page prefix the fast path skipped, so an armed fault point observes
  // identical hit counts and counter state as with a per-page walk.
  const std::vector<Gfn>& deferred = batch.deferred_gfns;
  std::size_t di = 0;
  Gfn next = 0;
  // Pokes the share point once per page of [next, stop) that is not
  // deferred, then moves `next` past `stop`.
  auto poke_shares_until = [&](Gfn stop) -> Status {
    for (;; ++di) {
      const Gfn run_end = di < deferred.size() && deferred[di] < stop ? deferred[di] : stop;
      FaultPoint::BulkPoke bulk = f_stage1_share_.PokeMany(run_end - next);
      if (!bulk.status.ok()) {
        AccountPartialScan(parent, batch, next + static_cast<Gfn>(bulk.performed) - 1, cp.lane);
        return bulk.status;
      }
      next = run_end + 1;
      if (run_end == stop) {
        return Status::Ok();
      }
    }
  };
  cp.private_mfns.reserve(batch.private_gfns.size());
  for (Gfn pgfn : batch.private_gfns) {
    NEPHELE_RETURN_IF_ERROR(poke_shares_until(pgfn));
    auto mfn = hv_.StageGuestFrame(cp.id);
    if (!mfn.ok()) {
      AccountPartialScan(parent, batch, pgfn, cp.lane);
      return mfn.status();
    }
    cp.private_mfns.push_back(*mfn);
  }
  NEPHELE_RETURN_IF_ERROR(poke_shares_until(static_cast<Gfn>(parent.p2m.size())));

  m_pages_private_copied_.Increment(batch.private_gfns.size());
  m_pages_idc_shared_.Increment(batch.idc_pages);
  m_pages_shared_again_.Increment(batch.regular_pages);
  m_pages_shared_.Increment(batch.regular_pages);
  m_lazy_deferred_pages_.Increment(deferred.size());
  cp.lane += batch.private_cost +
             costs.page_share_again * static_cast<double>(batch.idc_pages + batch.regular_pages);
  return PlanTables(parent, cp);
}

Status CloneEngine::PlanTables(Domain& parent, ChildPlan& cp) {
  const CostModel& costs = hv_.costs();
  Domain& child = *cp.child;
  // Private page tables and p2m map (dominant cost for large guests;
  // Sec. 4.1). Frames land on the child's page_table_frames/p2m_frames
  // lists and are returned by DestroyDomain, so a mid-build failure needs
  // no undo bookkeeping of its own.
  NEPHELE_RETURN_IF_ERROR(f_stage1_page_tables_.Poke());
  std::size_t pt_pages = PageTablePagesFor(parent.p2m.size());
  for (std::size_t i = 0; i < pt_pages; ++i) {
    NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, hv_.StageGuestFrame(cp.id));
    child.page_table_frames.push_back(mfn);
    cp.lane += costs.frame_alloc + costs.private_page_rewrite;
  }
  std::size_t p2m_pages = (parent.p2m.size() * 4 + kPageSize - 1) / kPageSize;
  if (p2m_pages == 0) {
    p2m_pages = 1;
  }
  for (std::size_t i = 0; i < p2m_pages; ++i) {
    NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, hv_.StageGuestFrame(cp.id));
    child.p2m_frames.push_back(mfn);
    cp.lane += costs.frame_alloc;
  }
  NEPHELE_RETURN_IF_ERROR(f_stage1_grants_.Poke());
  cp.lane +=
      costs.grant_entry_clone * static_cast<double>(parent.grants.active_entries());
  NEPHELE_RETURN_IF_ERROR(f_stage1_evtchns_.Poke());
  cp.lane += costs.evtchn_clone * static_cast<double>(parent.evtchns.active_ports());
  return Status::Ok();
}

void CloneEngine::StageChild(const Domain& parent, const BatchPlan& batch, ChildPlan& cp) {
  Domain& child = *cp.child;
  FrameTable& frames = hv_.frames();

  // Guest memory: private pages copy into the pre-allocated frames; shared
  // pages map the parent's frame, whose reference the commit takes. Parent
  // state is read-only here (the parent is paused and the plan phase has
  // finished mutating it before the first dispatch).
  child.p2m.reserve(parent.p2m.size());
  std::size_t pi = 0;
  std::size_t di = 0;
  for (Gfn gfn = 0; gfn < parent.p2m.size(); ++gfn) {
    const P2mEntry& pe = parent.p2m[gfn];
    if (IsPrivateRole(pe.role)) {
      Mfn mfn = cp.private_mfns[pi++];
      if (frames.info(pe.mfn).data != nullptr) {
        frames.CopyPage(pe.mfn, mfn);
      }
      child.p2m.push_back(P2mEntry{mfn, pe.role, /*writable=*/true});
    } else if (di < batch.deferred_gfns.size() && batch.deferred_gfns[di] == gfn) {
      // Deferred by the plan: not-present entry, no share ref. The ledger
      // is child-local state, so bumping it here is safe from a pool worker.
      ++di;
      child.p2m.push_back(P2mEntry{kInvalidMfn, pe.role, /*writable=*/false});
      ++child.lazy_deferred_pages;
    } else {
      child.p2m.push_back(
          P2mEntry{pe.mfn, pe.role, /*writable=*/pe.role == PageRole::kIdcShared});
    }
  }

  child.grants = parent.grants.CloneForChild();

  child.evtchns = parent.evtchns.CloneForChild();
  // IDC fix-up (Sec. 5.2.2): "On creation, a clone is implicitly bound to
  // all the IDC event channels of its parent." The first child's copy of
  // each kDomChild port becomes its end of an interdomain channel to the
  // parent; later children connect to the first child — exactly the state
  // the serial engine produced by copying the parent's table after its own
  // fix-up had bound those ports to the first child. The parent-side half
  // of the fix-up is applied serially at commit.
  const DomId bind_to = cp.id == batch.first_child ? parent.id : batch.first_child;
  for (EvtchnPort p = 1; p < child.evtchns.used_port_limit(); ++p) {
    EvtchnEntry& ce = child.evtchns.mutable_entry(p);
    if (ce.idc && ce.state == EvtchnState::kUnbound && ce.remote_dom == kDomChild) {
      ce.state = EvtchnState::kInterdomain;
      ce.remote_dom = bind_to;
      ce.remote_port = p;
    }
  }
}

void CloneEngine::RollbackBatch(Domain& parent, const BatchPlan& batch,
                                std::vector<ChildPlan>& plans) {
  FrameTable& frames = hv_.frames();
  // Share references are taken only by a successful commit, so a child,
  // staged or not, holds nothing but the private frames its plan allocated.
  // Newest child and newest frame first.
  for (auto it = plans.rbegin(); it != plans.rend(); ++it) {
    ChildPlan& cp = *it;
    if (cp.id == kDomInvalid) {
      continue;  // create_domain failed: this child never existed
    }
    for (auto mit = cp.private_mfns.rbegin(); mit != cp.private_mfns.rend(); ++mit) {
      (void)frames.Release(*mit);
    }
    // Every guest frame was already returned above; clear the p2m so
    // DestroyDomain only releases the page-table and p2m-map frames it
    // still tracks (a double release would corrupt the free list, and the
    // shared entries hold no reference to drop).
    Domain& child = *cp.child;
    child.p2m.clear();
    child.lazy_deferred_pages = 0;
    (void)hv_.DestroyDomain(cp.id);
    if (parent.clones_created > 0) {
      --parent.clones_created;
    }
    for (CloneObserver* obs : observers_) {
      obs->OnCloneAborted(parent.id, cp.id);
    }
  }
  // Restore the parent ptes this batch flipped read-only.
  for (Gfn gfn : batch.writable_flips) {
    parent.p2m[gfn].writable = true;
  }
}

Result<std::vector<DomId>> CloneEngine::Clone(const CloneRequest& req) {
  const DomId caller = req.caller;
  const DomId parent_id = req.parent;
  const Mfn start_info_mfn = req.start_info_mfn;
  const unsigned num_clones = req.num_children;
  hv_.ChargeHypercall();
  if (!hv_.cloning_globally_enabled()) {
    return ErrFailedPrecondition("cloning disabled globally");
  }
  if (caller != parent_id && caller != kDom0) {
    return ErrPermissionDenied("only the guest itself or Dom0 may clone it");
  }
  Domain* parent = hv_.FindDomain(parent_id);
  if (parent == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (!parent->cloning_enabled) {
    return ErrPermissionDenied("cloning not enabled for this domain");
  }
  // In 64 bits: a hostile count must not wrap the sum past the limit.
  if (std::uint64_t{parent->clones_created} + num_clones > parent->max_clones) {
    return ErrResourceExhausted("max_clones exceeded");
  }
  if (num_clones == 0) {
    return ErrInvalidArgument("num_clones must be positive");
  }
  // Interface check: the caller passes the machine address of its
  // start_info page (Sec. 5.1).
  if (parent->start_info_gfn == kInvalidGfn ||
      parent->p2m[parent->start_info_gfn].mfn != start_info_mfn) {
    return ErrInvalidArgument("start_info mfn mismatch");
  }
  if (ring_.size() + num_clones > ring_.capacity()) {
    // Backpressure: the notification ring is full; the first stage stalls
    // (Sec. 5). Callers retry after xencloned drains.
    m_ring_backpressure_.Increment();
    return ErrUnavailable("clone notification ring full");
  }
  // A streaming parent is itself only partially mapped — its deferred
  // entries hold no frame to share or copy from yet. Its own stream must
  // finish before it can serve as a clone source; a stall there fails the
  // clone with the stream's error and no side effects.
  if (IsStreaming(parent_id)) {
    NEPHELE_RETURN_IF_ERROR(FinishStreaming(parent_id));
  }
  m_batches_.Increment();
  batch_start_[parent_id] = hv_.loop().Now();
  for (CloneObserver* obs : observers_) {
    obs->OnCloneStart(parent_id, num_clones);
  }
  const SimTime stage1_start = hv_.loop().Now();
  TraceSpan span = trace_.BeginSpan("clone/stage1");
  span.AddArg("parent", static_cast<std::int64_t>(parent_id));
  span.AddArg("num_clones", static_cast<std::int64_t>(num_clones));

  // The parent is paused for the whole operation and stays paused until the
  // second stage completes for all children (Sec. 5).
  (void)hv_.PauseDomain(parent_id);
  parent->blocked_in_clone = true;

  // Lazy pool creation: systems that only ever clone with one thread never
  // spawn workers.
  if (worker_threads_ > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(worker_threads_);
  }

  // Plan each child serially, then pipeline its staging onto the pool while
  // the next child is planned. Everything that can fail fails in the plan,
  // so a dispatched staging job always completes.
  BatchPlan batch;
  batch.lazy = req.lazy;
  if (batch.lazy) {
    ComputeHotSet(*parent, req, batch);
  }
  std::vector<ChildPlan> plans;
  plans.reserve(num_clones);  // workers hold references; must not reallocate
  Status failure = Status::Ok();
  for (unsigned i = 0; i < num_clones; ++i) {
    plans.emplace_back();
    ChildPlan& cp = plans.back();
    failure = i == 0 ? PlanFirstChild(*parent, batch, cp) : PlanNextChild(*parent, batch, cp);
    if (!failure.ok()) {
      break;
    }
    if (pool_ != nullptr) {
      pool_->Submit(i, [this, parent, &batch, &cp] { StageChild(*parent, batch, cp); });
    } else {
      StageChild(*parent, batch, cp);
    }
  }
  if (pool_ != nullptr) {
    pool_->WaitIdle();
  }

  // The batch costs its slowest child in virtual time — concurrency is the
  // point of the worker pool, and the charge must not depend on the host
  // thread count. A single clone degenerates to the serial engine's exact
  // sum; a failed batch charges the work staged up to the failure.
  std::vector<SimDuration> lanes;
  lanes.reserve(plans.size());
  for (const ChildPlan& cp : plans) {
    lanes.push_back(cp.lane);
  }
  hv_.loop().AdvanceByCriticalPath(lanes);

  if (!failure.ok()) {
    // A failure anywhere unwinds all staged children and resumes the
    // parent, so a failed CLONEOP is side-effect free (the hypercall either
    // produces num_clones runnable children or none).
    RollbackBatch(*parent, batch, plans);
    m_rolled_back_.Increment();
    parent->blocked_in_clone = false;
    (void)hv_.UnpauseDomain(parent_id);
    return failure;
  }

  // Commit phase: serial, in child-index order; nothing below can fail.
  // Share references: every child maps the same parent frames as the first
  // one, so one pass over its p2m adds all num_clones sharers per frame.
  FrameTable& frames = hv_.frames();
  for (const P2mEntry& e : plans.front().child->p2m) {
    if (!IsPrivateRole(e.role) && e.mfn != kInvalidMfn) {
      (void)frames.Share(e.mfn, num_clones);
    }
  }
  // Parent half of the IDC event-channel fix-up: its unbound kDomChild
  // ports connect to the first child (which keeps serving as the receive
  // end for later ones).
  for (EvtchnPort p = 1; p < parent->evtchns.used_port_limit(); ++p) {
    EvtchnEntry& pe = parent->evtchns.mutable_entry(p);
    if (pe.idc && pe.state == EvtchnState::kUnbound && pe.remote_dom == kDomChild) {
      pe.state = EvtchnState::kInterdomain;
      pe.remote_dom = batch.first_child;
      pe.remote_port = p;
    }
  }
  // Publish the children to xencloned and to the caller.
  std::vector<DomId> children;
  children.reserve(num_clones);
  for (ChildPlan& cp : plans) {
    children.push_back(cp.id);
    pending_children_[cp.id] = PendingChild{parent_id, hv_.loop().Now()};
    ring_.Push(CloneNotification{parent_id, cp.id,
                                 parent->p2m[parent->start_info_gfn].mfn,
                                 cp.child->p2m[parent->start_info_gfn].mfn});
    (void)hv_.RaiseVirq(kDom0, Virq::kCloned);
    m_clones_.Increment();
  }
  // Register the lazy streams: each child owes batch.deferred_gfns, and the
  // background prefetcher starts ticking (unless manual mode). A lazy batch
  // with nothing deferred (tiny guest, everything hot) is already complete.
  if (batch.lazy) {
    for (const ChildPlan& cp : plans) {
      m_lazy_clones_.Increment();
      if (!batch.deferred_gfns.empty()) {
        streaming_.emplace(cp.id, StreamState{parent_id, batch.deferred_gfns, 0});
        if (lazy_cfg_.auto_stream) {
          ScheduleStreamTick(cp.id);
        }
      }
    }
  }
  outstanding_[parent_id] += num_clones;
  // Parent rax = 0: success, parent side.
  for (auto& v : parent->vcpus) {
    v.rax = 0;
  }
  m_stage1_ns_.Observe((hv_.loop().Now() - stage1_start).ns());
  return children;
}

Status CloneEngine::CloneCompletion(DomId child) {
  hv_.ChargeHypercall();
  auto it = pending_children_.find(child);
  if (it == pending_children_.end()) {
    return ErrNotFound("no pending clone for this child");
  }
  DomId parent_id = it->second.parent;
  m_stage2_ns_.Observe((hv_.loop().Now() - it->second.pushed_at).ns());
  pending_children_.erase(it);

  m_completions_.Increment();
  for (CloneObserver* obs : observers_) {
    obs->OnCloneComplete(parent_id, child);
  }

  Domain* child_dom = hv_.FindDomain(child);
  if (child_dom != nullptr && child_dom->state != DomainState::kPaused) {
    // Children are resumed unless their configuration keeps them paused;
    // xencloned pauses them explicitly beforehand in that case.
    (void)hv_.UnpauseDomain(child);
    FireResume(child, /*is_child=*/true);
  }
  RetireOutstanding(parent_id);
  return Status::Ok();
}

void CloneEngine::RetireOutstanding(DomId parent_id) {
  auto out = outstanding_.find(parent_id);
  if (out == outstanding_.end() || --out->second != 0) {
    return;
  }
  outstanding_.erase(out);
  Domain* parent = hv_.FindDomain(parent_id);
  if (parent != nullptr) {
    parent->blocked_in_clone = false;
    (void)hv_.UnpauseDomain(parent_id);
    last_parent_resume_ = hv_.loop().Now();
    FireResume(parent_id, /*is_child=*/false);
  }
}

void CloneEngine::FireResume(DomId dom, bool is_child) {
  // Observers are read at fire time, so registrations between the resume
  // decision and its delivery are honoured — the engine outlives the loop.
  hv_.loop().Post(SimDuration::Nanos(0), [this, dom, is_child] {
    if (is_child) {
      m_child_resumes_.Increment();
    } else {
      m_parent_resumes_.Increment();
      if (auto it = batch_start_.find(dom); it != batch_start_.end()) {
        m_fork_to_resume_ns_.Observe((hv_.loop().Now() - it->second).ns());
        batch_start_.erase(it);
      }
    }
    for (CloneObserver* obs : observers_) {
      obs->OnResume(dom, is_child);
    }
  });
}

Status CloneEngine::CloneCow(DomId caller, DomId dom, Gfn gfn, std::size_t count) {
  hv_.ChargeHypercall();
  if (caller != dom && caller != kDom0) {
    return ErrPermissionDenied("clone_cow: not owner or Dom0");
  }
  const Domain* d = hv_.FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("clone_cow: no such domain");
  }
  // Bound the whole range up front: `gfn + i` wraps at 2^32 for hostile
  // counts, which would otherwise loop (and resolve COW) astronomically.
  if (gfn > d->p2m.size() || count > d->p2m.size() - gfn) {
    return ErrOutOfRange("clone_cow: range outside p2m");
  }
  for (std::size_t i = 0; i < count; ++i) {
    NEPHELE_RETURN_IF_ERROR(hv_.ForceCowResolve(dom, gfn + static_cast<Gfn>(i)));
    m_explicit_cow_pages_.Increment();
  }
  return Status::Ok();
}

Result<std::size_t> CloneEngine::CloneReset(DomId caller, DomId child_id) {
  hv_.ChargeHypercall();
  if (caller != kDom0 && caller != child_id) {
    return ErrPermissionDenied("clone_reset: not Dom0");
  }
  Domain* child = hv_.FindDomain(child_id);
  if (child == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (child->parent == kDomInvalid) {
    return ErrFailedPrecondition("domain is not a clone");
  }
  Domain* parent = hv_.FindDomain(child->parent);
  if (parent == nullptr) {
    return ErrFailedPrecondition("parent gone");
  }
  // Post-copy interaction: a half-streamed child resets to its post-clone
  // state only once that state fully exists, and a target with streaming
  // children must not swap out frames they still read through. Finish both
  // directions first; a stream stall surfaces as the reset's error with the
  // partial stream progress kept.
  NEPHELE_RETURN_IF_ERROR(FinishStreaming(child_id));
  std::vector<DomId> streaming_children;
  for (const auto& [c, st] : streaming_) {
    if (st.parent == child_id) {
      streaming_children.push_back(c);
    }
  }
  for (DomId c : streaming_children) {
    NEPHELE_RETURN_IF_ERROR(FinishStreaming(c));
  }
  NEPHELE_RETURN_IF_ERROR(f_reset_.Poke());
  FrameTable& frames = hv_.frames();
  hv_.loop().AdvanceBy(hv_.costs().clone_reset_fixed);

  // Per-page restore is re-share then release, so a failure between the two
  // never leaves a page referencing a freed frame. On a mid-loop error the
  // already-restored prefix is dropped from the dirty list and the rest is
  // kept: a retry resumes exactly where this attempt stopped.
  std::vector<Gfn>& dirty = child->dirty_since_clone;
  std::size_t restored = 0;
  Status page_status = Status::Ok();
  for (Gfn gfn : dirty) {
    P2mEntry& ce = child->p2m[gfn];
    P2mEntry& pe = parent->p2m[gfn];
    Result<bool> entered = frames.Share(pe.mfn, 1);
    if (!entered.ok()) {
      page_status = entered.status();
      break;
    }
    if (*entered) {
      pe.writable = false;
    }
    (void)frames.Release(ce.mfn);
    ce.mfn = pe.mfn;
    ce.writable = false;
    hv_.loop().AdvanceBy(hv_.costs().clone_reset_per_page);
    ++restored;
  }
  if (!page_status.ok()) {
    dirty.erase(dirty.begin(), dirty.begin() + static_cast<std::ptrdiff_t>(restored));
    m_reset_pages_restored_.Increment(restored);
    return page_status;
  }
  dirty.clear();
  m_resets_.Increment();
  m_reset_pages_restored_.Increment(restored);
  return restored;
}

Status CloneEngine::EnableGlobal(DomId caller, bool enabled) {
  hv_.ChargeHypercall();
  if (caller != kDom0) {
    return ErrPermissionDenied("only Dom0 may toggle global cloning");
  }
  hv_.SetCloningGloballyEnabled(enabled);
  return Status::Ok();
}

}  // namespace nephele
