// CloneEngine: the hypervisor side of Nephele — the CLONEOP hypercall and
// the first stage of cloning (Sec. 4.1, 5.1, 5.2). It operates directly on
// hypervisor state, exactly as the real implementation extends Xen itself.
//
// The first stage of a batch runs in three phases:
//
//   plan    (simulation thread, serial)  — validation, fault pokes, frame
//           allocations off the free list, parent-side mutations (COW pte
//           flips, clone accounting), per-child virtual-time lane math and
//           every metrics update. Everything that can fail fails here.
//   stage   (worker pool, parallel)      — per-child heavy lifting against
//           pre-allocated frames: private page copies, p2m construction,
//           grant/event-channel table duplication. A staging job writes only
//           its own child's state and takes no share reference. Staging is
//           infallible by construction.
//   commit  (simulation thread, serial, child-index order) — the batch's
//           COW share references (one FrameTable::Share per frame for all
//           children at once), parent IDC event-channel fix-up,
//           notification-ring pushes, VIRQ_CLONED, pending/outstanding
//           bookkeeping.
//
// Because failures, metrics and externally visible ordering all live in the
// serial phases, the result of a batch is byte-identical at any worker
// thread count; only wall-clock time changes. Virtual time is charged as the
// critical path over the per-child lanes (a batch costs its slowest child,
// not the sum), which for a single clone degenerates to the exact serial
// cost.

#ifndef SRC_CORE_CLONE_ENGINE_H_
#define SRC_CORE_CLONE_ENGINE_H_

#include <cstddef>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/core/clone_types.h"
#include "src/core/worker_pool.h"
#include "src/fault/fault.h"
#include "src/hypervisor/hypervisor.h"
#include "src/obs/clone_observer.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/obs/trace.h"

namespace nephele {

class CloneEngine {
 public:
  // `lazy` holds the post-copy prefetcher knobs (SystemConfig::lazy_clone),
  // fixed for the engine's lifetime.
  CloneEngine(Hypervisor& hv, const SystemServices& services, const LazyCloneConfig& lazy);

  // ---------------------------------------------------------------------
  // CLONEOP subcommands.
  // ---------------------------------------------------------------------

  // kClone: creates `req.num_children` children of `req.parent` (see
  // CloneRequest for the field semantics). On success the parent is paused
  // until every child finishes the second stage, and the returned array is
  // what the hypervisor writes back to the caller.
  Result<std::vector<DomId>> Clone(const CloneRequest& req);

  // kCloneCompletion: xencloned signals that the second stage of `child` is
  // done. Resumes the child (unless configured paused) and the parent once
  // all its outstanding children completed or aborted. A child destroyed
  // before this call is retired as an abort instead (OnDomainDestroy).
  Status CloneCompletion(DomId child);

  // kCloneCow: explicitly un-share (COW) `count` pages of `dom` starting at
  // `gfn`, so KFX can insert breakpoints into clone-private text (Sec. 7.2).
  Status CloneCow(DomId caller, DomId dom, Gfn gfn, std::size_t count);

  // kCloneReset: restores every page `child` dirtied since its clone back to
  // the shared post-clone state (Sec. 7.2 memory reset between fuzz
  // iterations). Returns the number of pages restored.
  Result<std::size_t> CloneReset(DomId caller, DomId child);

  // kEnableGlobal.
  Status EnableGlobal(DomId caller, bool enabled);

  // ---------------------------------------------------------------------
  // Lazy (post-copy) cloning.
  // ---------------------------------------------------------------------
  // A CloneRequest with `lazy` set maps only the hot working set in stage 1;
  // every other kData page becomes a not-present p2m entry backed by the
  // parent, recorded in the child's deferred ledger
  // (Domain::lazy_deferred_pages). The batch is the eager plan plus one
  // deferred list, decided once by the first child's page walk. The
  // remainder streams in through a background prefetcher on the event loop,
  // with demand faults (guest writes, grants, clone_cow) materialising
  // individual pages ahead of the stream. A fully-streamed lazy child is
  // state-for-state identical to an eager clone of the same parent.

  // True while `child` still has deferred pages to stream.
  bool IsStreaming(DomId child) const { return streaming_.count(child) > 0; }
  // Deferred pages `child` still owes (0 when not streaming).
  std::size_t PendingStreamPages(DomId child) const;

  // Synchronously streams every remaining deferred page of `child`, poking
  // the "lazy/stream" fault point once per batch like the background
  // prefetcher would. On an injected fault the stream stalls: the error is
  // returned, progress so far is kept, and the child remains streaming.
  // Not-streaming children succeed trivially. Clone() of a streaming
  // parent, CloneReset() of a streaming child (or of a parent with
  // streaming children) and the scheduler's park path all funnel through
  // this, so no operation ever observes a half-mapped domain it would
  // mis-handle.
  Status FinishStreaming(DomId child);

  // Manual-mode pump: runs up to `batches` prefetcher batches, round-robin
  // over streaming children in ascending DomId order. Returns the number of
  // pages materialised. Stalled batches (armed "lazy/stream" fault) count
  // against `batches` but stream nothing. The simulation-test harness
  // (src/dst) drives streams exclusively through this (auto_stream=false)
  // so mid-stream windows between ops are deterministic.
  std::size_t StreamPump(std::size_t batches = 1);

  // ---------------------------------------------------------------------
  // Wiring.
  // ---------------------------------------------------------------------
  CloneNotificationRing& notification_ring() { return ring_; }

  // All clone-path instrumentation — the guest runtime, the scheduler,
  // tracing, benches — registers through this single interface. The engine
  // records the clone lifecycle metrics itself (clone/completions,
  // clone/resume/{child,parent}_total, clone/fork_to_resume/duration_ns),
  // each just before the observer loop of its event. Observers
  // are not owned; callers must RemoveObserver before destroying one. They
  // run in registration order (see clone_observer.h for per-callback
  // delivery semantics).
  void AddObserver(CloneObserver* observer);
  void RemoveObserver(CloneObserver* observer);

  // Number of host threads staging clone batches. 1 (the default) stages
  // inline on the simulation thread; n > 1 partitions children of a batch
  // round-robin across n pool workers. The pool is created lazily on the
  // first multi-threaded batch and torn down on reconfiguration. Results
  // are identical at any setting; only wall-clock time changes.
  void SetWorkerThreads(unsigned n);
  unsigned worker_threads() const { return worker_threads_; }

  // Virtual time at which the last blocked parent was unpaused, set
  // synchronously when its last child completed or aborted the second
  // stage. Benches measure the guest-visible fork() duration with it; the
  // clone/fork_to_resume histogram ends in a posted OnResume instead, which
  // can run at a later instant.
  SimTime last_parent_resume() const { return last_parent_resume_; }

 private:
  // Per-child output of the plan phase: everything a worker needs to stage
  // the child without taking any decision of its own.
  struct ChildPlan {
    DomId id = kDomInvalid;
    Domain* child = nullptr;
    // Frames pre-allocated for the child's private guest pages, in ascending
    // parent-gfn order (parallel to BatchPlan::private_gfns).
    std::vector<Mfn> private_mfns;
    // This child's virtual-time lane (its cost had it been cloned alone,
    // minus the hypercall trap).
    SimDuration lane;
  };

  // Batch-wide facts the first child's page walk decides once. Later
  // children, staging and rollback accounting replay them instead of
  // re-deciding per page.
  struct BatchPlan {
    // Parent gfns holding private-role pages, ascending.
    std::vector<Gfn> private_gfns;
    // Parent ptes flipped writable->read-only by this batch, for rollback.
    std::vector<Gfn> writable_flips;
    // Shared-page counts; with deferred_gfns they cover every non-private
    // page.
    std::size_t idc_pages = 0;
    std::size_t regular_pages = 0;
    // Cost of one child's private-page work (identical for every child).
    SimDuration private_cost;
    DomId first_child = kDomInvalid;
    // --- Lazy mode (set once in Clone(), read-only afterwards). ---
    bool lazy = false;
    // The hot working set: kData gfns mapped eagerly. Only PlanFirstChild
    // reads it.
    std::unordered_set<Gfn> hot;
    // Parent gfns deferred for every child (kData, not hot), ascending: the
    // one record of the deferral decision, which later plans and staging
    // walk with a cursor, and the initial stream list of each child.
    std::vector<Gfn> deferred_gfns;
  };

  // Stream of one lazy child. `deferred` is fixed at commit; `cursor` walks
  // it — entries a demand fault materialised first are skipped when the
  // stream reaches them. cursor == deferred.size() ⇔ ledger is 0 ⇔ done.
  struct StreamState {
    DomId parent = kDomInvalid;
    std::vector<Gfn> deferred;
    std::size_t cursor = 0;
  };
  using StreamMap = std::map<DomId, StreamState>;

  // Plan phase, one plan per child position in both modes. PlanFirstChild
  // walks every parent page once: it classifies the page (copy, share or,
  // in a lazy batch, defer), pokes faults in page order and flips parent
  // ptes, and adds its page counts to the registry once per walk — on a
  // failed walk, exactly the per-page prefix. PlanNextChild replays those
  // decisions in O(private + deferred pages) — every one of its shares is
  // costed as a re-share of a page the first child shares first. Both leave
  // a partially-planned child behind on failure; RollbackBatch cleans it
  // up.
  Status PlanChildCommon(Domain& parent, ChildPlan& cp);
  Status PlanFirstChild(Domain& parent, BatchPlan& batch, ChildPlan& cp);
  Status PlanNextChild(Domain& parent, BatchPlan& batch, ChildPlan& cp);
  Status PlanTables(Domain& parent, ChildPlan& cp);

  // Seeds BatchPlan::hot for a lazy batch: specials and private pages are
  // implicitly hot (never deferred); this collects the explicit hint plus up
  // to max_hot_pages recently-touched parent pages (dirty_since_clone, then
  // still-writable kData pages — exactly the pages that saw a write since
  // the previous clone).
  void ComputeHotSet(const Domain& parent, const CloneRequest& req, BatchPlan& batch);

  // Shares the parent's frame at `gfn` into `child` and clears the deferred
  // ledger entry. The caller has checked the entry is not present and
  // charges its own fixed cost (stream batch vs demand fault); this charges
  // the per-page share cost. Infallible: streaming state guarantees a live,
  // fully-mapped parent.
  void MaterializePage(Domain& parent, Domain& child, Gfn gfn);

  // The one stream drain: materialises up to `max_pages` of `st`'s remaining
  // deferred pages in cursor order, skipping entries a demand fault
  // materialised first. Returns the number of pages streamed.
  std::size_t DrainStream(StreamState& st, Domain& parent, Domain& child,
                          std::size_t max_pages);

  // One prefetcher batch for `child`: pokes "lazy/stream" (a fault stalls
  // the batch — returned, nothing streamed), charges the batch cost and
  // drains up to stream_batch_pages deferred pages. `out_pages` (optional)
  // reports pages materialised. Erases the stream state when the child
  // finishes.
  Status RunStreamBatch(DomId child, std::size_t* out_pages);

  // Background tick: one batch, then re-posts itself while the child still
  // streams (also after a stall — the injected fault is treated as a
  // transient backend error, so the stream retries instead of dying).
  void ScheduleStreamTick(DomId child);

  // Demand path (Hypervisor::LazyTouchHook): a touch of (dom, gfn) that
  // needs page materialisation before the regular COW machinery may look at
  // the entry. Two cases — `dom` is a streaming child touching its own
  // not-present entry, or `dom` is a parent about to COW a page its
  // streaming children still defer (the write would break the children's
  // snapshot, so the page is pushed to them first). Both take DemandFault.
  Status OnLazyTouch(DomId dom, Gfn gfn);

  // The one demand-fault body: if the child streaming at `it` still defers
  // `gfn`, pokes "lazy/demand_fault" (an injected fault is returned and
  // leaves the page deferred), charges the fault, materialises the page and
  // retires a stream that owes nothing more (invalidating `it`).
  Status DemandFault(StreamMap::iterator it, Gfn gfn);

  // Hypervisor::DomainDestroyHook, the one place a dying domain is handled.
  // Observers hear of every death first (OnDestroy, while the domain can
  // still be looked up). A child still waiting for its second stage is
  // retired as an abort (OnCloneAborted, clone/rolled_back, its outstanding
  // slot returned, the parent resumed after its last child), whoever
  // destroys it: xencloned's failed second stage or a destroy before the
  // second stage completed.
  // Tearing down a streaming parent force-finishes its children's streams
  // (no fault pokes — the destroy is already committed); tearing down a
  // streaming child cancels its stream.
  void OnDomainDestroy(DomId dom);

  // Stage phase: runs on a pool worker (or inline when worker_threads_==1).
  // Writes only the child's state and its pre-allocated frames, reading
  // parent state the plan has finished mutating. Shared pages are mapped
  // without a reference; the commit takes them for the whole batch.
  void StageChild(const Domain& parent, const BatchPlan& batch, ChildPlan& cp);

  // Unwinds a failed batch (children [0, n) of `plans`, newest first) back
  // to the pre-hypercall state. A failed batch never holds a share
  // reference, so every child, staged or not, only returns its private
  // frames, newest first, and is destroyed; then the parent ptes the plan
  // flipped read-only become writable again.
  void RollbackBatch(Domain& parent, const BatchPlan& batch, std::vector<ChildPlan>& plans);

  // Exact per-page counter/lane accounting for a mid-plan failure in
  // PlanNextChild: recomputes what the pages in [0, end_gfn) contributed,
  // deferred pages included.
  void AccountPartialScan(const Domain& parent, const BatchPlan& batch, Gfn end_gfn,
                          SimDuration& lane);

  void CloneVcpus(const Domain& parent, Domain& child);
  void FireResume(DomId dom, bool is_child);
  // Retires one outstanding second-stage slot of `parent_id`, for a
  // completed or an aborted child; the last one unblocks and resumes the
  // parent.
  void RetireOutstanding(DomId parent_id);

  struct PendingChild {
    DomId parent = kDomInvalid;
    // When the notification was pushed: start of the second stage.
    SimTime pushed_at;
  };

  Hypervisor& hv_;
  const LazyCloneConfig lazy_cfg_;
  CloneNotificationRing ring_;
  SimTime last_parent_resume_;

  TraceRecorder& trace_;

  Counter& m_clones_;
  Counter& m_batches_;
  Counter& m_pages_shared_;
  Counter& m_pages_shared_first_;
  Counter& m_pages_shared_again_;
  Counter& m_pages_private_copied_;
  Counter& m_pages_idc_shared_;
  Counter& m_resets_;
  Counter& m_reset_pages_restored_;
  Counter& m_explicit_cow_pages_;
  Counter& m_ring_backpressure_;
  Counter& m_rolled_back_;
  Counter& m_lazy_clones_;
  Counter& m_lazy_deferred_pages_;
  Counter& m_streamed_pages_;
  Counter& m_lazy_stream_batches_;
  Counter& m_lazy_stream_stalls_;
  Counter& m_lazy_demand_faults_;
  Gauge& g_lazy_pending_pages_;
  Histogram& m_stage1_ns_;
  Histogram& m_stage2_ns_;
  Counter& m_completions_;
  Counter& m_child_resumes_;
  Counter& m_parent_resumes_;
  // Guest-visible fork() latency: CLONEOP entry to the posted parent resume.
  Histogram& m_fork_to_resume_ns_;

  FaultPoint& f_stage1_create_;
  FaultPoint& f_stage1_memory_;
  FaultPoint& f_stage1_share_;
  FaultPoint& f_stage1_page_tables_;
  FaultPoint& f_stage1_grants_;
  FaultPoint& f_stage1_evtchns_;
  FaultPoint& f_reset_;
  FaultPoint& f_lazy_stream_;
  FaultPoint& f_lazy_demand_;

  unsigned worker_threads_ = 1;
  std::unique_ptr<WorkerPool> pool_;  // created lazily; null while serial

  std::vector<CloneObserver*> observers_;
  // Outstanding second-stage completions per parent.
  std::map<DomId, unsigned> outstanding_;
  std::map<DomId, PendingChild> pending_children_;
  // CLONEOP entry time of each parent's batch in flight (a parent is paused
  // until its batch completes, so one entry per parent suffices).
  std::map<DomId, SimTime> batch_start_;

  // Active streams, keyed by child. Ordered so StreamPump's round-robin and
  // the pending-pages gauge are worker-count independent.
  StreamMap streaming_;
};

}  // namespace nephele

#endif  // SRC_CORE_CLONE_ENGINE_H_
