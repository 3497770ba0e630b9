// ClusterScheduler: cross-host clone placement on top of the ClusterFabric.
// One CloneScheduler runs per host (same batching/warm-pool/admission
// machinery as the single-host path); this layer decides WHICH host serves
// each child of an Acquire, so the fabric's replicated parent images and
// per-host warm pools act as one cluster-wide pool:
//
//   RegisterParent  replicates the parent's image to every peer host over
//                   the fabric links (Toolstack::SnapshotDomain + MigrateIn)
//                   and returns a family handle; each host then clones from
//                   its local replica — no cross-host traffic per clone.
//   Acquire         places each requested child by spread: the warm
//                   eligible host with the fewest active children, else the
//                   eligible host with the fewest, ties to the lowest index.
//                   The child goes to that host's CloneScheduler; grants
//                   come back as ClusterGrant{host, dom}.
//   Release         returns a grant to its host's warm pool, where a later
//                   Acquire can pick it up warm.
//
// A host's active children are those placed there and not yet failed,
// released or destroyed. The scheduler watches every host's clone engine
// (CloneObserver::OnDestroy), so a granted child that anyone destroys frees
// its slot at once. Placement reads only these counts, the replicas and
// the host schedulers' warm pools, entirely on the deterministic cluster
// loop: byte-identical across reruns and clone worker counts, like every
// other layer.
//
// Time: the scheduler lives on the fabric lane; each CloneScheduler runs on
// its host's lane (src/sim/event_loop.h). Acquire and Release hand the
// fabric's time to the target host (AdvanceTo) before calling into it, and
// every grant or failure crosses back as an event posted on the fabric lane
// at the host's time, so callbacks read fabric.Now() == the granting host's
// clock and hosts serve their shares of a wave in parallel.

#ifndef SRC_SCHED_CLUSTER_SCHEDULER_H_
#define SRC_SCHED_CLUSTER_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/base/result.h"
#include "src/core/fabric.h"
#include "src/obs/clone_observer.h"
#include "src/sched/scheduler.h"

namespace nephele {

// A granted child and the host it lives on.
struct ClusterGrant {
  std::size_t host = 0;
  DomId dom = kDomInvalid;
};

class ClusterScheduler {
 public:
  using GrantCallback = std::function<void(Result<ClusterGrant>)>;

  // Builds one CloneScheduler per fabric host from each host's own config
  // and services.
  explicit ClusterScheduler(ClusterFabric& fabric);

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  // Replicates `parent` (which lives on `home_host`) to every peer host and
  // registers the family. Peers whose replication fails (link down, ...)
  // simply stay ineligible for this family; the call succeeds as long as
  // the home host's parent exists. Returns the family handle Acquire takes.
  Result<std::size_t> RegisterParent(std::size_t home_host, DomId parent);

  // Requests `num_children` clones of the family, each placed independently.
  // `cb` fires once per child on the fabric lane — with the grant, or
  // with the error that retired that child's request (admission, timeout,
  // batch failure). Rejections of one child do not abort the others.
  Status Acquire(std::size_t family, unsigned num_children, GrantCallback cb);

  // Returns a granted child to its host's warm pool.
  Result<ReleaseOutcome> Release(const ClusterGrant& grant);

  CloneScheduler& host_scheduler(std::size_t host) { return *hosts_.at(host)->sched; }
  // The family's clone source on `host`; kDomInvalid when replication to
  // that host failed.
  DomId replica(std::size_t family, std::size_t host) const;
  std::size_t active_on(std::size_t host) const { return hosts_.at(host)->active; }

 private:
  struct Family {
    std::vector<DomId> replica_by_host;  // indexed by host
  };

  // One host's scheduler and placement slots. It watches the host's clone
  // engine for deaths; domids repeat across hosts, so each host has its own.
  struct HostSlots : CloneObserver {
    explicit HostSlots(Host& host);
    ~HostSlots() override;
    HostSlots(const HostSlots&) = delete;
    HostSlots& operator=(const HostSlots&) = delete;
    // Frees the slot of `dom` if it is a granted, unreleased child; a
    // second call for the same child frees nothing.
    void Free(DomId dom);
    void OnDestroy(DomId dom) override { Free(dom); }

    CloneEngine& engine;
    std::unique_ptr<CloneScheduler> sched;
    // Children placed and not yet failed, released or destroyed. Bumped at
    // placement time (not grant time) so a burst of Acquires spreads.
    std::size_t active = 0;
    std::set<DomId> granted;  // granted and not yet released or destroyed
  };

  ClusterFabric& fabric_;
  std::vector<std::unique_ptr<HostSlots>> hosts_;
  std::vector<Family> families_;
  Counter& m_acquires_;
  Counter& m_placements_;
  Counter& m_warm_placements_;
  Counter& m_rejected_;
  Counter& m_released_;
  Counter& m_replicas_created_;
};

}  // namespace nephele

#endif  // SRC_SCHED_CLUSTER_SCHEDULER_H_
