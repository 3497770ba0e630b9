#include "src/load/dispatch.h"

#include <algorithm>
#include <cmath>

namespace nephele {

RequestCloneDispatcher::RequestCloneDispatcher(Host& host, CloneScheduler& sched)
    : loop_(host.loop()),
      sched_(sched),
      costs_(host.costs()),
      config_(host.config().load),
      // A stream of its own: service draws must not perturb arrival or
      // user draws (and vice versa), or the d=1 and d=2 runs of the
      // dominance oracle would see different arrival sequences.
      service_rng_(host.config().load.seed ^ 0xd15b47c4e5ULL),
      c_submitted_(host.metrics().GetCounter("req/submitted")),
      c_dispatched_(host.metrics().GetCounter("req/dispatched")),
      c_wins_(host.metrics().GetCounter("req/wins")),
      c_cancelled_(host.metrics().GetCounter("req/cancelled")),
      c_rejected_(host.metrics().GetCounter("req/rejected")),
      c_failed_(host.metrics().GetCounter("req/failed")),
      h_latency_(host.metrics().GetHistogram("req/latency_ns",
                                               Histogram::DefaultLatencyBoundsNs())),
      h_service_(host.metrics().GetHistogram("req/service_ns",
                                               Histogram::DefaultLatencyBoundsNs())),
      g_in_flight_(host.metrics().GetGauge("req/in_flight")),
      g_latency_p99_(host.metrics().GetGauge("req/latency_p99_ns")) {}

SimDuration RequestCloneDispatcher::MeanServiceTime(const LoadConfig& config,
                                                    const CostModel& costs) {
  const double base_ns =
      static_cast<double>(config.service_pages) *
          static_cast<double>(costs.guest_touch_page.ns()) +
      static_cast<double>(config.service_p9_rpcs) * static_cast<double>(costs.p9_rpc.ns()) +
      static_cast<double>(config.service_net_packets) *
          static_cast<double>(costs.net_tx_packet.ns() + costs.net_rx_packet.ns());
  return SimDuration::Nanos(static_cast<std::int64_t>(std::llround(base_ns)));
}

SimDuration RequestCloneDispatcher::DrawServiceTime() {
  const double base_ns = static_cast<double>(MeanServiceTime(config_, costs_).ns());
  const double mult = -std::log(1.0 - service_rng_.NextDouble());  // Exp(1)
  const auto ns = static_cast<std::int64_t>(std::llround(base_ns * mult));
  return SimDuration::Nanos(ns < 1 ? 1 : ns);
}

void RequestCloneDispatcher::Submit(const LoadRequest& request) {
  c_submitted_.Increment();
  const unsigned d = std::max(1u, config_.clone_factor);
  RequestState state;
  state.request = request;
  state.unresolved = d;
  state.dups.resize(d);
  requests_.emplace(request.id, std::move(state));
  g_in_flight_.Set(static_cast<std::int64_t>(requests_.size()));
  for (unsigned i = 0; i < d; ++i) {
    StartDuplicate(request.id, i);
  }
}

void RequestCloneDispatcher::StartDuplicate(std::uint64_t id, unsigned idx) {
  c_dispatched_.Increment();
  if (active_slots_ < config_.max_concurrent) {
    ++active_slots_;
    AcquireFor(id, idx);
  } else if (pending_.size() < kMaxPendingDuplicates) {
    pending_.emplace_back(id, idx);
  } else {
    Resolve(id, idx, Outcome::kReject);
  }
}

void RequestCloneDispatcher::AcquireFor(std::uint64_t id, unsigned idx) {
  requests_.find(id)->second.dups[idx].state = DupState::kAwaitGrant;
  const Status status =
      sched_.Acquire(CloneRequest(kDom0, parent_, kInvalidMfn, 1),
                     [this, id, idx](Result<DomId> r) { OnGrant(id, idx, std::move(r)); });
  if (!status.ok()) {
    // Synchronous admission reject (queue full, armed sched/admit fault):
    // the callback never fires, the slot comes straight back.
    FreeSlot();
    Resolve(id, idx, Outcome::kReject);
  }
}

void RequestCloneDispatcher::OnGrant(std::uint64_t id, unsigned idx, Result<DomId> granted) {
  auto it = requests_.find(id);
  if (it == requests_.end()) {
    // Defensive: a record cannot finalize while a grant is outstanding
    // (the awaiting duplicate stays unresolved), but never leak a child.
    if (granted.ok()) {
      FreeSlot();
      (void)sched_.Release(*granted);
      DrainPending();
    }
    return;
  }
  Duplicate& dup = it->second.dups[idx];
  if (!granted.ok()) {
    // Timeout, abort, or an injected dispatch fault failed the batch.
    FreeSlot();
    Resolve(id, idx, Outcome::kReject);
    DrainPending();
    return;
  }
  if (dup.cancel_on_grant) {
    // The sibling already won: hand the untouched child straight back.
    FreeSlot();
    (void)sched_.Release(*granted);
    Resolve(id, idx, Outcome::kCancel);
    DrainPending();
    return;
  }
  dup.state = DupState::kActive;
  dup.dom = *granted;
  dup.service = DrawServiceTime();
  const std::uint64_t epoch = dup.epoch;
  loop_.Post(dup.service, [this, id, idx, epoch] { OnComplete(id, idx, epoch); });
}

void RequestCloneDispatcher::OnComplete(std::uint64_t id, unsigned idx, std::uint64_t epoch) {
  auto it = requests_.find(id);
  if (it == requests_.end()) {
    return;
  }
  RequestState& req = it->second;
  Duplicate& winner = req.dups[idx];
  if (winner.state != DupState::kActive || winner.epoch != epoch) {
    return;  // stale: this duplicate was cancelled mid-service
  }
  // First response wins. Active losers are cancelled eagerly at every win,
  // so an active completion is always the first response.
  const std::int64_t latency = (loop_.Now() - req.request.arrival).ns();
  h_latency_.Observe(latency);
  h_service_.Observe(winner.service.ns());
  PushTailLatency(latency);
  if (latency_log_ != nullptr) {
    latency_log_->push_back(latency);
  }
  req.won = true;
  // Snapshot the losers before any Resolve can erase the record.
  struct LoserAction {
    unsigned idx;
    DomId dom;
    bool active;
  };
  std::vector<LoserAction> losers;
  for (unsigned i = 0; i < req.dups.size(); ++i) {
    if (i == idx) {
      continue;
    }
    Duplicate& dup = req.dups[i];
    if (dup.state == DupState::kResolved) {
      continue;
    }
    if (dup.state == DupState::kAwaitGrant) {
      dup.cancel_on_grant = true;  // counted when the grant lands
      continue;
    }
    if (dup.state == DupState::kActive) {
      ++dup.epoch;  // the loser's completion event is now stale
    }
    losers.push_back({i, dup.dom, dup.state == DupState::kActive});
  }
  FreeSlot();
  (void)sched_.Release(winner.dom);
  Resolve(id, idx, Outcome::kWin);
  for (const LoserAction& loser : losers) {
    if (loser.active) {
      FreeSlot();
      (void)sched_.Release(loser.dom);
    }
    Resolve(id, loser.idx, Outcome::kCancel);
  }
  DrainPending();
}

void RequestCloneDispatcher::Resolve(std::uint64_t id, unsigned idx, Outcome outcome) {
  auto it = requests_.find(id);
  if (it == requests_.end()) {
    return;
  }
  RequestState& req = it->second;
  Duplicate& dup = req.dups[idx];
  if (dup.state == DupState::kResolved) {
    return;
  }
  dup.state = DupState::kResolved;
  switch (outcome) {
    case Outcome::kWin:
      c_wins_.Increment();
      break;
    case Outcome::kCancel:
      c_cancelled_.Increment();
      break;
    case Outcome::kReject:
      c_rejected_.Increment();
      break;
  }
  if (--req.unresolved == 0) {
    if (!req.won) {
      // Request-level failure (every duplicate rejected) — outside the
      // per-duplicate identity by design.
      c_failed_.Increment();
    }
    requests_.erase(it);
    g_in_flight_.Set(static_cast<std::int64_t>(requests_.size()));
  }
}

void RequestCloneDispatcher::FreeSlot() {
  if (active_slots_ > 0) {
    --active_slots_;
  }
}

void RequestCloneDispatcher::DrainPending() {
  while (!pending_.empty() && active_slots_ < config_.max_concurrent) {
    const auto [id, idx] = pending_.front();
    pending_.pop_front();
    auto it = requests_.find(id);
    if (it == requests_.end() || it->second.dups[idx].state != DupState::kPending) {
      continue;  // cancelled while queued
    }
    ++active_slots_;
    AcquireFor(id, idx);
  }
}

void RequestCloneDispatcher::PushTailLatency(std::int64_t latency_ns) {
  const auto sorted_begin = tail_sorted_.begin();
  const auto sorted_end = tail_sorted_.end();
  if (tail_.size() < kTailWindow) {
    tail_.push_back(latency_ns);
    tail_sorted_.insert(std::upper_bound(sorted_begin, sorted_end, latency_ns), latency_ns);
  } else {
    // The new value takes the evicted one's place: only the entries between
    // the two positions shift, by one, towards the evicted slot.
    std::int64_t& evicted = tail_[tail_pos_];
    const auto old_pos = std::lower_bound(sorted_begin, sorted_end, evicted);
    if (evicted < latency_ns) {
      const auto new_pos = std::upper_bound(old_pos + 1, sorted_end, latency_ns);
      std::move(old_pos + 1, new_pos, old_pos);
      *(new_pos - 1) = latency_ns;
    } else if (latency_ns < evicted) {
      const auto new_pos = std::upper_bound(sorted_begin, old_pos, latency_ns);
      std::move_backward(new_pos, old_pos, old_pos + 1);
      *new_pos = latency_ns;
    }
    evicted = latency_ns;
  }
  tail_pos_ = (tail_pos_ + 1) % kTailWindow;
  // Nearest-rank p99 over the recent-wins window; this gauge is the series
  // the req_tail alarm evaluates.
  std::size_t rank = (tail_sorted_.size() * 99 + 99) / 100;  // ceil
  if (rank > 0) {
    --rank;
  }
  g_latency_p99_.Set(tail_sorted_[rank]);
}

}  // namespace nephele
