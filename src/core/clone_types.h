// Shared types of the CLONEOP hypercall interface (Sec. 5.1), plus the
// config structs SystemConfig (src/core/host.h) carries for the layers
// built on the core: post-copy cloning, the clone scheduler and the request
// layer. Each field is a value some bench, example, the DST harness or the
// repo benchmark varies; values nothing varies are constants beside the
// code that uses them (kLazyStreamInterval here, kTailWindow in
// src/load/dispatch.h).

#ifndef SRC_CORE_CLONE_TYPES_H_
#define SRC_CORE_CLONE_TYPES_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/hypervisor/types.h"
#include "src/sim/time.h"

namespace nephele {

// Subcommands of the single new hypercall.
enum class CloneOpCmd : int {
  kClone = 0,            // guest (or Dom0 on its behalf) requests clones
  kCloneCompletion = 1,  // xencloned reports second-stage completion
  kCloneCow = 2,         // trigger COW explicitly for a page (KFX breakpoints)
  kCloneReset = 3,       // restore a clone's memory to its post-clone state
  kEnableGlobal = 4,     // xencloned enables cloning system-wide
};

// The typed argument block of CLONEOP kClone — what the caller marshals into
// the hypercall. `caller` is the invoking domain (the parent itself on the
// guest path, Dom0 when cloning is driven from outside the VM);
// `start_info_mfn` must name the parent's start_info page (interface check).
struct CloneRequest {
  CloneRequest() = default;
  // Positional convenience for the overwhelmingly common eager call shape
  // Clone({caller, parent, start_info_mfn, n}); lazy callers append the
  // mode flag and an optional hot-page hint.
  CloneRequest(DomId caller_in, DomId parent_in, Mfn start_info_mfn_in,
               unsigned num_children_in = 1, bool lazy_in = false,
               std::vector<Gfn> hot_pages_in = {})
      : caller(caller_in),
        parent(parent_in),
        start_info_mfn(start_info_mfn_in),
        num_children(num_children_in),
        lazy(lazy_in),
        hot_pages(std::move(hot_pages_in)) {}

  DomId caller = kDomInvalid;
  DomId parent = kDomInvalid;
  Mfn start_info_mfn = kInvalidMfn;
  unsigned num_children = 1;
  // Post-copy mode: stage 1 maps only the hot working set (specials, private
  // pages, the parent's dirty/recently-touched pages and the explicit
  // `hot_pages` hint below) and defers the remaining COW-shareable pages,
  // which stream in afterwards (LazyCloneConfig) or demand-fault on touch.
  bool lazy = false;
  // Caller-supplied working-set hint: gfns to map eagerly in a lazy clone.
  // Out-of-range entries are ignored. Unused for eager clones.
  std::vector<Gfn> hot_pages;
};

// Delay between consecutive prefetcher batches of one lazy child (the
// stream's rate limit).
inline constexpr SimDuration kLazyStreamInterval = SimDuration::Micros(250);

// Knobs of the lazy-clone (post-copy) background prefetcher. Like
// SchedulerConfig this lives here so SystemConfig carries the knob surface.
struct LazyCloneConfig {
  // Pages materialised per prefetcher batch.
  std::size_t stream_batch_pages = 64;
  // When false the background prefetcher never runs on its own: pages
  // materialise only via demand faults, explicit StreamPump() calls, or
  // FinishStreaming(). The simulation-test harness (src/dst) uses manual
  // mode to open deterministic mid-stream windows between ops.
  bool auto_stream = true;
  // Cap on the number of recently-touched parent pages seeded into the hot
  // set (beyond specials, private pages and the explicit hint). On a parent
  // whose pages are all still writable — never cloned before — this cap is
  // what keeps a lazy clone from degrading to eager.
  std::size_t max_hot_pages = 128;
};

// Knobs of the clone scheduler (src/sched). Lives here — not in src/sched —
// so SystemConfig can carry the whole knob surface without the core layer
// depending on the scheduler built on top of it.
struct SchedulerConfig {
  // Clone requests for the same parent arriving within this window coalesce
  // into one CloneEngine batch.
  SimDuration batch_window = SimDuration::Millis(2);
  // A parent's pending queue dispatches immediately once it holds this many
  // requests, without waiting for the window to expire.
  unsigned max_batch = 8;
  // Warm children parked per parent; the least-recently-parked child is
  // evicted (destroyed) when a park would exceed this.
  std::size_t warm_pool_capacity = 4;
  // Admission control: pending (queued, not yet dispatched) requests per
  // parent. An acquire that would push the queue past this is rejected with
  // kResourceExhausted instead of growing the queue unboundedly.
  std::size_t max_queue_depth = 32;
  // A queued request not dispatched within this duration fails with
  // kAborted instead of waiting forever.
  SimDuration request_timeout = SimDuration::Seconds(5);
};

// Knobs of the heavy-traffic request layer (src/load): the open-loop load
// generator and the request-cloning dispatcher. Lives here — like
// SchedulerConfig — so SystemConfig carries the whole knob surface without
// the core layer depending on the request layer built on top of it.
struct LoadConfig {
  // Poisson arrival rate (requests/s): the generator draws i.i.d.
  // exponential inter-arrival gaps. Must be > 0.
  double rate_rps = 200.0;
  // Seed of the whole request layer (arrival gaps, user-id draws, service
  // times): one (config, seed) pair reproduces a run byte for byte.
  std::uint64_t seed = 1;
  // Simulated user population: each request carries a user id drawn
  // uniformly from [0, user_population). Users are per-request records, not
  // simulated objects — millions of users cost one id draw per request.
  std::uint64_t user_population = 10'000'000;
  // Request cloning (arXiv 2002.04416): every request is duplicated to this
  // many cloned instances; the first response wins, the losers are
  // cancelled immediately and their instances released to the warm pool.
  unsigned clone_factor = 2;
  // Scheduler-mode service slots (the c servers of the queueing model): at
  // most this many duplicates hold an acquired instance at once; the rest
  // wait in the dispatcher's FIFO.
  std::size_t max_concurrent = 8;
  // Per-request service demand, priced by the cost model: touching
  // `service_pages` guest pages, `service_p9_rpcs` 9p RPCs and
  // `service_net_packets` packets through the split driver. Each
  // duplicate's actual service time is that base scaled by an independent
  // Exp(1) draw — the i.i.d. assumption that makes first-response-wins cut
  // the tail.
  std::size_t service_pages = 512;
  std::size_t service_p9_rpcs = 4;
  std::size_t service_net_packets = 8;
};

// One entry of the hypervisor -> xencloned notification ring. "A
// notification contains only the minimum required information for xencloned
// to proceed with the second stage" (Sec. 5.1).
struct CloneNotification {
  DomId parent = kDomInvalid;
  DomId child = kDomInvalid;
  Mfn parent_start_info_mfn = kInvalidMfn;
  Mfn child_start_info_mfn = kInvalidMfn;
};

// Bounded ring carrying clone notifications to xencloned. A full ring acts
// as backpressure on the first stage (Sec. 5).
class CloneNotificationRing {
 public:
  explicit CloneNotificationRing(std::size_t capacity = 64) : capacity_(capacity) {}

  bool full() const { return entries_.size() >= capacity_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  bool Push(const CloneNotification& n) {
    if (full()) {
      return false;
    }
    entries_.push_back(n);
    return true;
  }

  bool Pop(CloneNotification* out) {
    if (entries_.empty()) {
      return false;
    }
    *out = entries_.front();
    entries_.pop_front();
    return true;
  }

 private:
  std::size_t capacity_;
  std::deque<CloneNotification> entries_;
};

}  // namespace nephele

#endif  // SRC_CORE_CLONE_TYPES_H_
