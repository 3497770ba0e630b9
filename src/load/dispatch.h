// Request-cloning dispatch policy (the processor-sharing request-cloning
// model of arXiv 2002.04416, on top of Nephele VM cloning): every request
// is duplicated to `clone_factor` cloned instances, the first response
// wins, the losers are cancelled immediately and their instances returned.
// Exact accounting invariant, per duplicate, checked by tests/load_test.cc
// at every quiescent point:
//
//   req/dispatched = req/wins + req/cancelled + req/rejected
//
// The clone scheduler is the only source of instances: each duplicate
// Acquires a fresh clone of the parent from the CloneScheduler and
// Releases it to the warm pool on resolution — the literal two-level-cloning
// policy. `max_concurrent` bounds duplicates holding instances at once,
// which makes the dispatcher a c-server queueing system with a FIFO. The
// req/latency_p99_ns gauge covers the last kTailWindow wins.

#ifndef SRC_LOAD_DISPATCH_H_
#define SRC_LOAD_DISPATCH_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/core/system.h"
#include "src/load/load_gen.h"
#include "src/sched/scheduler.h"

namespace nephele {

// Duplicates the dispatcher's FIFO holds while every service slot is busy;
// overflow rejects.
inline constexpr std::size_t kMaxPendingDuplicates = 4096;
// Recent win latencies backing the req/latency_p99_ns gauge (the series the
// req_tail alarm watches).
inline constexpr std::size_t kTailWindow = 256;

class RequestCloneDispatcher {
 public:
  RequestCloneDispatcher(Host& host, CloneScheduler& sched);

  // The parent whose clones serve duplicates. Must be set before the first
  // Submit.
  void SetParent(DomId parent) { parent_ = parent; }

  void Submit(const LoadRequest& request);

  // Tests and benches: collect each winning latency (ns) as it lands, in
  // win order. Pass nullptr to stop.
  void RecordLatenciesTo(std::vector<std::int64_t>* out) { latency_log_ = out; }

  std::uint64_t dispatched() const { return c_dispatched_.value(); }
  std::uint64_t wins() const { return c_wins_.value(); }
  std::uint64_t cancelled() const { return c_cancelled_.value(); }
  std::uint64_t rejected() const { return c_rejected_.value(); }
  std::uint64_t failed() const { return c_failed_.value(); }
  std::size_t in_flight() const { return requests_.size(); }
  std::size_t pending() const { return pending_.size(); }

  // The mean duplicate service time the config's demand prices out to under
  // `costs` (the Exp(1) multiplier has mean 1). Benches derive arrival
  // rates for a target utilization from this.
  static SimDuration MeanServiceTime(const LoadConfig& config, const CostModel& costs);

 private:
  enum class DupState { kPending, kAwaitGrant, kActive, kResolved };
  enum class Outcome { kWin, kCancel, kReject };

  struct Duplicate {
    DupState state = DupState::kPending;
    DomId dom = kDomInvalid;
    // Bumped to invalidate an in-flight completion event (cancellation of
    // an active loser).
    std::uint64_t epoch = 0;
    // Win happened while the grant was outstanding: count the duplicate
    // cancelled when the grant lands, and release the instance untouched.
    bool cancel_on_grant = false;
    SimDuration service;
  };

  struct RequestState {
    LoadRequest request;
    unsigned unresolved = 0;
    bool won = false;
    std::vector<Duplicate> dups;
  };

  void StartDuplicate(std::uint64_t id, unsigned idx);
  void AcquireFor(std::uint64_t id, unsigned idx);
  void OnGrant(std::uint64_t id, unsigned idx, Result<DomId> granted);
  void OnComplete(std::uint64_t id, unsigned idx, std::uint64_t epoch);
  void Resolve(std::uint64_t id, unsigned idx, Outcome outcome);
  // A duplicate stopped holding (or waiting for) an instance: its slot goes
  // back to the pending FIFO.
  void FreeSlot();
  void DrainPending();
  SimDuration DrawServiceTime();
  void PushTailLatency(std::int64_t latency_ns);

  EventLoop& loop_;
  CloneScheduler& sched_;
  const CostModel& costs_;
  LoadConfig config_;
  Rng service_rng_;
  DomId parent_ = kDomInvalid;

  std::map<std::uint64_t, RequestState> requests_;
  std::deque<std::pair<std::uint64_t, unsigned>> pending_;
  std::size_t active_slots_ = 0;

  Counter& c_submitted_;
  Counter& c_dispatched_;
  Counter& c_wins_;
  Counter& c_cancelled_;
  Counter& c_rejected_;
  Counter& c_failed_;
  Histogram& h_latency_;
  Histogram& h_service_;
  Gauge& g_in_flight_;
  Gauge& g_latency_p99_;

  // The recent-wins window twice: in arrival order (a ring, tail_pos_ is
  // the next slot to overwrite) and sorted, so a win updates the p99 gauge
  // with two binary searches instead of a selection over the window.
  std::vector<std::int64_t> tail_;
  std::vector<std::int64_t> tail_sorted_;
  std::size_t tail_pos_ = 0;
  std::vector<std::int64_t>* latency_log_ = nullptr;
};

}  // namespace nephele

#endif  // SRC_LOAD_DISPATCH_H_
