#include "src/sched/scheduler.h"

#include <algorithm>
#include <utility>

#include "src/base/status.h"

namespace nephele {

namespace {
// The error of every request whose parent died before its batch ran.
Status ParentVanished() { return ErrNotFound("parent vanished before dispatch"); }
}  // namespace

CloneScheduler::CloneScheduler(Hypervisor& hv, CloneEngine& engine, Toolstack& toolstack,
                               EventLoop& loop, SchedulerConfig config,
                               const SystemServices& services)
    : hv_(hv),
      engine_(engine),
      toolstack_(toolstack),
      loop_(loop),
      config_(config),
      trace_(services.trace),
      m_requests_(services.metrics.GetCounter("sched/requests_total")),
      m_warm_hits_(services.metrics.GetCounter("sched/warm_hits")),
      m_warm_misses_(services.metrics.GetCounter("sched/warm_misses")),
      m_batches_(services.metrics.GetCounter("sched/batches_dispatched")),
      m_batch_failures_(services.metrics.GetCounter("sched/batch_failures")),
      m_rejected_(services.metrics.GetCounter("sched/rejected_queue_full")),
      m_timeouts_(services.metrics.GetCounter("sched/timeouts")),
      m_parked_(services.metrics.GetCounter("sched/parked_total")),
      m_evictions_(services.metrics.GetCounter("sched/evictions")),
      m_reset_fallback_(services.metrics.GetCounter("sched/reset_fallback_destroys")),
      m_batch_size_(services.metrics.GetHistogram("sched/batch_size", {1, 2, 4, 8, 16, 32, 64})),
      m_wait_ns_(services.metrics.GetHistogram("sched/wait_ns",
                                               Histogram::DefaultLatencyBoundsNs())),
      m_warm_grant_ns_(services.metrics.GetHistogram("sched/warm_grant_ns",
                                                     Histogram::DefaultLatencyBoundsNs())),
      g_queue_depth_(services.metrics.GetGauge("sched/queue_depth")),
      g_pool_size_(services.metrics.GetGauge("sched/warm_pool_size")),
      f_admit_(*services.faults.GetPoint("sched/admit")),
      f_dispatch_(*services.faults.GetPoint("sched/dispatch")),
      f_park_(*services.faults.GetPoint("sched/park")) {
  if (config_.max_batch == 0) {
    config_.max_batch = 1;
  }
  executor_ = [this](const CloneRequest& req) { return engine_.Clone(req); };
  engine_.AddObserver(this);
}

CloneScheduler::~CloneScheduler() { engine_.RemoveObserver(this); }

void CloneScheduler::SetCloneExecutor(CloneExecutor executor) {
  executor_ = std::move(executor);
}

std::size_t CloneScheduler::WarmPoolSize(DomId parent) const {
  auto it = parents_.find(parent);
  return it == parents_.end() ? 0 : it->second.pool.size();
}

std::size_t CloneScheduler::QueueDepth(DomId parent) const {
  auto it = parents_.find(parent);
  return it == parents_.end() ? 0 : it->second.queue.size();
}

void CloneScheduler::UpdateGauges() {
  g_queue_depth_.Set(static_cast<std::int64_t>(total_queued_));
  g_pool_size_.Set(static_cast<std::int64_t>(total_parked_));
}

Status CloneScheduler::Acquire(const CloneRequest& req, GrantCallback cb) {
  if (req.num_children == 0) {
    return ErrInvalidArgument("acquire of zero children");
  }
  if (hv_.FindDomain(req.parent) == nullptr) {
    return ErrNotFound("no such parent domain");
  }
  m_requests_.Increment(req.num_children);
  NEPHELE_RETURN_IF_ERROR(f_admit_.Poke());

  auto& ps = parents_[req.parent];
  // Admission is decided for the whole request before the warm pool is
  // consulted: a request the queue could not absorb is rejected outright
  // rather than half-granted.
  if (ps.queue.size() + req.num_children > config_.max_queue_depth) {
    m_rejected_.Increment();
    return ErrResourceExhausted("scheduler queue full");
  }

  unsigned remaining = req.num_children;
  const SimTime issued = loop_.Now();
  // Warm hits first, most recently parked first (its pages are the most
  // likely to still be resident/shared).
  while (remaining > 0 && !ps.pool.empty()) {
    DomId child = ps.pool.back();
    ps.pool.pop_back();
    --total_parked_;
    m_warm_hits_.Increment();
    --remaining;
    // The last grant of the request takes the callback; earlier ones copy.
    loop_.Post(SimDuration::Nanos(0), [this, cb = remaining == 0 ? std::move(cb) : cb, child,
                                       issued] {
      m_warm_grant_ns_.Observe((loop_.Now() - issued).ns());
      cb(Result<DomId>(child));
    });
  }

  if (remaining > 0) {
    m_warm_misses_.Increment(remaining);
    const DomId parent = req.parent;
    for (unsigned i = 0; i < remaining; ++i) {
      Ticket t;
      t.id = next_ticket_id_++;
      t.enqueued_at = issued;
      t.cb = i + 1 == remaining ? std::move(cb) : cb;
      if (config_.request_timeout.ns() > 0) {
        // Fires only for a ticket still queued: leaving the queue cancels it.
        t.timeout = loop_.Post(config_.request_timeout, [this, parent, id = t.id] {
          auto& queue = parents_[parent].queue;
          auto qit = std::find_if(queue.begin(), queue.end(),
                                  [id](const Ticket& q) { return q.id == id; });
          Ticket expired = std::move(*qit);
          queue.erase(qit);
          --total_queued_;
          m_timeouts_.Increment();
          FailTicket(expired, ErrAborted("scheduler request timed out"));
          UpdateGauges();
        });
      }
      ps.queue.push_back(std::move(t));
      ++total_queued_;
    }
    if (ps.queue.size() >= config_.max_batch) {
      // A full batch is ready: dispatch at this instant without waiting out
      // the window (through the loop, so Acquire itself stays queue-only).
      const std::uint64_t epoch = ++ps.epoch;
      ps.window_armed = false;
      loop_.Post(SimDuration::Nanos(0), [this, parent, epoch] {
        auto pit = parents_.find(parent);
        if (pit != parents_.end() && pit->second.epoch == epoch) {
          Dispatch(parent);
        }
      });
    } else if (!ps.in_flight) {
      ArmWindow(parent);
    }
    // else: a batch is in flight; its completion dispatches the backlog.
  }
  UpdateGauges();
  return Status::Ok();
}

void CloneScheduler::ArmWindow(DomId parent) {
  auto& ps = parents_[parent];
  if (ps.window_armed) {
    return;
  }
  ps.window_armed = true;
  const std::uint64_t epoch = ps.epoch;
  loop_.Post(config_.batch_window, [this, parent, epoch] {
    auto pit = parents_.find(parent);
    if (pit == parents_.end() || pit->second.epoch != epoch) {
      return;  // a dispatch already consumed this window
    }
    pit->second.window_armed = false;
    Dispatch(parent);
  });
}

void CloneScheduler::Dispatch(DomId parent) {
  auto pit = parents_.find(parent);
  if (pit == parents_.end()) {
    return;
  }
  auto& ps = pit->second;
  if (ps.in_flight || ps.queue.empty()) {
    return;
  }
  ++ps.epoch;  // invalidate any armed window; this dispatch supersedes it
  ps.window_armed = false;

  const unsigned n =
      static_cast<unsigned>(std::min<std::size_t>(ps.queue.size(), config_.max_batch));
  std::vector<Ticket> taken;
  taken.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    taken.push_back(PopTicket(ps));
  }

  Status fault = f_dispatch_.Poke();
  const Domain* d = fault.ok() ? hv_.FindDomain(parent) : nullptr;
  if (fault.ok() && (d == nullptr || d->start_info_gfn == kInvalidGfn)) {
    fault = ParentVanished();
  }
  if (!fault.ok()) {
    m_batch_failures_.Increment();
    for (Ticket& t : taken) {
      FailTicket(t, fault);
    }
    UpdateGauges();
    if (!ps.queue.empty()) {
      ArmWindow(parent);
    }
    return;
  }

  CloneRequest req;
  req.caller = kDom0;
  req.parent = parent;
  req.start_info_mfn = d->p2m[d->start_info_gfn].mfn;
  req.num_children = n;

  TraceSpan span = trace_.BeginSpan("sched/dispatch");
  span.AddArg("parent", static_cast<std::int64_t>(parent));
  span.AddArg("batch", static_cast<std::int64_t>(n));

  ps.in_flight = true;
  Result<std::vector<DomId>> children = executor_(req);
  if (!children.ok()) {
    ps.in_flight = false;
    m_batch_failures_.Increment();
    for (Ticket& t : taken) {
      FailTicket(t, children.status());
    }
    UpdateGauges();
    if (!ps.queue.empty()) {
      ArmWindow(parent);
    }
    return;
  }

  m_batches_.Increment();
  m_batch_size_.Observe(static_cast<std::int64_t>(n));
  for (std::size_t i = 0; i < children->size() && i < taken.size(); ++i) {
    awaiting_resume_[(*children)[i]] = std::move(taken[i]);
  }
  UpdateGauges();
}

CloneScheduler::Ticket CloneScheduler::PopTicket(ParentState& ps) {
  Ticket t = std::move(ps.queue.front());
  ps.queue.pop_front();
  --total_queued_;
  loop_.Cancel(t.timeout);
  return t;
}

void CloneScheduler::FailTicket(Ticket& ticket, const Status& why) {
  if (ticket.cb) {
    GrantCallback cb = std::move(ticket.cb);
    Status status = why;
    loop_.Post(SimDuration::Nanos(0),
               [cb = std::move(cb), status = std::move(status)] { cb(status); });
  }
}

void CloneScheduler::OnResume(DomId dom, bool is_child) {
  if (is_child) {
    auto it = awaiting_resume_.find(dom);
    if (it == awaiting_resume_.end()) {
      return;  // a direct (unscheduled) clone on the same engine
    }
    Ticket ticket = std::move(it->second);
    awaiting_resume_.erase(it);
    m_wait_ns_.Observe((loop_.Now() - ticket.enqueued_at).ns());
    if (ticket.cb) {
      ticket.cb(Result<DomId>(dom));
    }
    return;
  }
  // Parent resumed: the batch (scheduled or not) is over; drain any backlog
  // that accumulated while it was in flight.
  auto pit = parents_.find(dom);
  if (pit == parents_.end() || !pit->second.in_flight) {
    return;
  }
  pit->second.in_flight = false;
  if (!pit->second.queue.empty()) {
    Dispatch(dom);
  }
}

void CloneScheduler::OnDestroy(DomId dom) {
  // A dying parent never resumes, so nothing would dispatch its queue: fail
  // every queued request now, as a dispatch would, and forget the batch in
  // flight and the armed window. Its pool stays keyed under it.
  if (auto pit = parents_.find(dom); pit != parents_.end()) {
    ParentState& ps = pit->second;
    while (!ps.queue.empty()) {
      Ticket t = PopTicket(ps);
      FailTicket(t, ParentVanished());
    }
    ps.in_flight = false;
    ps.window_armed = false;
    ++ps.epoch;
    UpdateGauges();
  }
  if (auto it = awaiting_resume_.find(dom); it != awaiting_resume_.end()) {
    Ticket ticket = std::move(it->second);
    awaiting_resume_.erase(it);
    FailTicket(ticket, ErrAborted("clone aborted before the child resumed"));
    return;
  }
  // A parked child stays in the pool of the parent it was parked under,
  // even if that parent died since and the child was re-parented.
  for (auto& [parent, ps] : parents_) {
    auto it = std::find(ps.pool.begin(), ps.pool.end(), dom);
    if (it != ps.pool.end()) {
      ps.pool.erase(it);
      --total_parked_;
      UpdateGauges();
      return;
    }
  }
}

Result<ReleaseOutcome> CloneScheduler::Release(DomId child) {
  const Domain* d = hv_.FindDomain(child);
  if (d == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (d->parent == kDomInvalid) {
    return ErrFailedPrecondition("domain is not a clone");
  }
  const DomId parent = d->parent;
  {
    auto pit = parents_.find(parent);
    if (pit != parents_.end() &&
        std::find(pit->second.pool.begin(), pit->second.pool.end(), child) !=
            pit->second.pool.end()) {
      return ErrFailedPrecondition("child is already parked");
    }
  }

  Status fault = f_park_.Poke();
  // CloneReset finishes a half-streamed lazy child's stream before it
  // scrubs it, so a warm hit always hands out a fully-mapped domain.
  Result<std::size_t> restored =
      fault.ok() ? engine_.CloneReset(kDom0, child) : Result<std::size_t>(fault);
  ReleaseOutcome outcome;
  if (!restored.ok()) {
    // A child we cannot scrub must not serve another request: destroy it.
    m_reset_fallback_.Increment();
    (void)toolstack_.DestroyDomain(child);
    outcome.parked = false;
    UpdateGauges();
    return outcome;
  }
  outcome.reset_applied = true;
  outcome.pages_restored = *restored;

  auto& ps = parents_[parent];
  ps.pool.push_back(child);
  ++total_parked_;
  m_parked_.Increment();

  // Capacity eviction: the least recently parked children go until the
  // pool is back within its cap. The child just parked is the most
  // recent, so it goes only when the cap is 0.
  while (ps.pool.size() > config_.warm_pool_capacity) {
    DomId victim = ps.pool.front();
    ps.pool.erase(ps.pool.begin());
    --total_parked_;
    m_evictions_.Increment();
    (void)toolstack_.DestroyDomain(victim);
  }
  outcome.parked = !ps.pool.empty() && ps.pool.back() == child;
  UpdateGauges();
  return outcome;
}

void CloneScheduler::DrainAll() {
  for (auto& [parent, ps] : parents_) {
    while (!ps.pool.empty()) {
      DomId victim = ps.pool.back();
      ps.pool.pop_back();
      --total_parked_;
      (void)toolstack_.DestroyDomain(victim);
    }
    while (!ps.queue.empty()) {
      Ticket t = PopTicket(ps);
      FailTicket(t, ErrAborted("scheduler drained"));
    }
    ps.window_armed = false;
    ++ps.epoch;
  }
  UpdateGauges();
}

}  // namespace nephele
