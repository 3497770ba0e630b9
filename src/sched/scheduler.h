// CloneScheduler: the control-plane layer between clone consumers (the FaaS
// gateway/backend, benches, DST scenarios) and the clone pipeline. The paper
// stops at the mechanism — a single CLONEOP call producing a batch — and its
// FaaS evaluation issues one synchronous clone per scale-up decision; this
// scheduler adds the policy layer a production deployment needs (ROADMAP:
// "sharding, batching, async, caching"):
//
//   batching    Requests for the same parent arriving within a sim-time
//               window (or while an earlier batch is still in flight)
//               coalesce into one CloneEngine batch — the shape PR 3's
//               parallel stage 1 is optimised for. Per-parent batches are
//               serialised: the parent is paused for the whole first+second
//               stage, so a second CLONEOP cannot overlap it anyway.
//   warm pool   A completed invocation releases its child back to the
//               scheduler: the child is CloneReset (O(dirtied pages), the
//               Sec. 7.2 mechanism) and parked instead of destroyed, and the
//               next request is served from the pool in O(reset) rather than
//               O(clone) — the SnowFlock / Firecracker microVM-pool
//               economics. Pools are per parent, most-recently-parked first;
//               eviction is LRU, driven by a per-parent capacity cap.
//   admission   The per-parent queue is bounded: a request that would push
//               it past the limit is rejected synchronously with a typed
//               kResourceExhausted status, and a queued request not served
//               within the timeout fails with kAborted — overload degrades
//               deterministically instead of growing unboundedly. A ticket
//               that leaves the queue (dispatch, DrainAll, the parent's
//               destroy) cancels its timeout timer, so served requests
//               leave no dead timers behind to age the clock when the loop
//               drains.
//
// Every decision runs on the deterministic EventLoop (window timers, grant
// delivery, timeouts), so scheduled runs stay byte-identical across reruns
// and clone-engine worker counts. The scheduler registers itself as a
// CloneObserver on the engine: batch completion and per-child resumes drive
// grant delivery, and every domain death reaches it through OnDestroy. Since
// its batches go through the ordinary CLONEOP path, every other observer
// (metrics, tracing, the guest runtime) sees scheduled clones exactly like
// direct ones. The scheduler destroys children (evictions, reset fallbacks,
// DrainAll) with Toolstack::DestroyDomain; a parked child that anyone else
// destroys leaves its pool in OnDestroy, so a pool only holds live domains.
//
// Like GuestManager, the scheduler is built ON TOP of a Host, not inside
// it: hosts that never schedule pay nothing and export unchanged metrics.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/base/result.h"
#include "src/core/clone_engine.h"
#include "src/core/clone_types.h"
#include "src/core/system.h"
#include "src/fault/fault.h"
#include "src/obs/clone_observer.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/obs/trace.h"
#include "src/sim/event_loop.h"
#include "src/toolstack/toolstack.h"

namespace nephele {

// What happened to a released child. `parked` is false when the child was
// destroyed instead — either the CloneReset failed (fallback destroy,
// `reset_applied` false) or capacity eviction reclaimed it before Release
// returned (`reset_applied` still true).
struct ReleaseOutcome {
  bool parked = false;
  bool reset_applied = false;
  std::size_t pages_restored = 0;
};

class CloneScheduler : public CloneObserver {
 public:
  // Invoked exactly once per requested child: with the granted DomId (warm
  // or freshly cloned, delivered through the event loop), or with the error
  // that retired the request (timeout, batch failure, stage-2 abort).
  using GrantCallback = std::function<void(Result<DomId>)>;
  // The batch executor Dispatch() calls. Defaults to CloneEngine::Clone;
  // consumers whose children need runtime plumbing substitute their own
  // (the FaaS backend uses GuestManager::ForkChildren).
  using CloneExecutor = std::function<Result<std::vector<DomId>>(const CloneRequest&)>;

  CloneScheduler(Hypervisor& hv, CloneEngine& engine, Toolstack& toolstack, EventLoop& loop,
                 SchedulerConfig config, const SystemServices& services);
  // Convenience wiring: knobs from host.config().sched, services from
  // host.services().
  explicit CloneScheduler(Host& host)
      : CloneScheduler(host.hypervisor(), host.clone_engine(), host.toolstack(),
                       host.loop(), host.config().sched, host.services()) {}

  CloneScheduler(const CloneScheduler&) = delete;
  CloneScheduler& operator=(const CloneScheduler&) = delete;
  ~CloneScheduler() override;

  // Requests `req.num_children` children of `req.parent`. Admission is
  // checked against the whole request up front (typed kResourceExhausted
  // when the queue cannot take it); then warm children serve as many
  // requests as the pool holds and the remainder queues for the next batch.
  // `cb` fires once per requested child, always through the event loop.
  Status Acquire(const CloneRequest& req, GrantCallback cb);

  // An invocation finished with `child`: CloneReset it (which first
  // finishes a lazy child's stream) and park it in the parent's warm pool,
  // evicting LRU children past the capacity cap. A failed reset falls back
  // to destroying the child — Release still succeeds, with
  // outcome.parked == false.
  Result<ReleaseOutcome> Release(DomId child);

  // Teardown: destroys every parked child and fails every queued request
  // with kAborted.
  void DrainAll();

  void SetCloneExecutor(CloneExecutor executor);

  // ---------------------------------------------------------------------
  // Telemetry feedback (driven by SchedulerAlarmFeedback, src/sched/
  // feedback.h — or directly by tests/operators).
  // ---------------------------------------------------------------------

  // Stretches the batching window: future windows arm for
  // config().batch_window * scale. Values below 1 clamp to 1; already-armed
  // windows fire on their old schedule.
  void SetBatchWindowScale(double scale);
  double batch_window_scale() const { return window_scale_; }
  SimDuration effective_batch_window() const {
    return config_.batch_window * window_scale_;
  }

  // While frozen, Release parks unconditionally: capacity eviction is
  // suspended (pools may exceed warm_pool_capacity). Unfreezing runs a
  // catch-up sweep that restores the cap. Transitions are counted in
  // sched/feedback_transitions and mirrored by the sched/eviction_frozen
  // gauge.
  void SetEvictionFrozen(bool frozen);
  bool eviction_frozen() const { return eviction_frozen_; }

  const SchedulerConfig& config() const { return config_; }
  std::size_t WarmPoolSize(DomId parent) const;
  std::size_t TotalPooled() const { return total_parked_; }
  std::size_t QueueDepth(DomId parent) const;
  std::size_t TotalQueued() const { return total_queued_; }

  // CloneObserver: batch completion (parent resume) re-arms dispatch;
  // per-child resumes deliver grants. A destroyed child leaves its warm
  // pool, and a dispatched child destroyed before its grant (a stage-2
  // abort or any other destroy) fails its request with kAborted. A
  // destroyed parent fails every request still queued for it with
  // kNotFound at once, whether or not one of its batches is in flight.
  void OnResume(DomId dom, bool is_child) override;
  void OnDestroy(DomId dom) override;

 private:
  struct Ticket {
    std::uint64_t id = 0;
    SimTime enqueued_at;
    GrantCallback cb;
    EventId timeout;  // cancelled when the ticket leaves the queue
  };
  struct ParentState {
    std::deque<Ticket> queue;       // cold requests awaiting a batch
    std::vector<DomId> pool;        // parked children; back = most recent
    bool window_armed = false;
    std::uint64_t epoch = 0;        // invalidates stale window timers
    bool in_flight = false;         // a batch is between dispatch and resume
  };

  void ArmWindow(DomId parent);
  void Dispatch(DomId parent);
  // Pops the oldest queued ticket of `ps` and cancels its timeout timer.
  Ticket PopTicket(ParentState& ps);
  void FailTicket(Ticket& ticket, const Status& why);
  // Destroys the least recently parked children of one pool until it is
  // back within warm_pool_capacity.
  void EvictToCapacity(ParentState& ps);
  void UpdateGauges();

  Hypervisor& hv_;
  CloneEngine& engine_;
  Toolstack& toolstack_;
  EventLoop& loop_;
  SchedulerConfig config_;

  TraceRecorder& trace_;

  Counter& m_requests_;
  Counter& m_warm_hits_;
  Counter& m_warm_misses_;
  Counter& m_batches_;
  Counter& m_batch_failures_;
  Counter& m_rejected_;
  Counter& m_timeouts_;
  Counter& m_parked_;
  Counter& m_evictions_;
  Counter& m_reset_fallback_;
  Counter& m_feedback_transitions_;
  Histogram& m_batch_size_;
  Histogram& m_wait_ns_;        // acquire -> cold grant
  Histogram& m_warm_grant_ns_;  // acquire -> warm grant
  Gauge& g_queue_depth_;
  Gauge& g_pool_size_;
  Gauge& g_eviction_frozen_;

  FaultPoint& f_admit_;
  FaultPoint& f_dispatch_;
  FaultPoint& f_park_;

  CloneExecutor executor_;

  std::map<DomId, ParentState> parents_;
  // Dispatched child -> the ticket it will serve once the child resumes.
  std::map<DomId, Ticket> awaiting_resume_;
  std::uint64_t next_ticket_id_ = 1;
  std::size_t total_queued_ = 0;
  std::size_t total_parked_ = 0;
  double window_scale_ = 1.0;
  bool eviction_frozen_ = false;
};

}  // namespace nephele

#endif  // SRC_SCHED_SCHEDULER_H_
