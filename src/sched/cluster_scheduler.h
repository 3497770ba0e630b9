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
//   Acquire         places each requested child on a host via the pluggable
//                   PlacementFn (pack / spread / memory-pressure-aware
//                   built-ins, warm-children-first in every policy) and
//                   forwards to that host's CloneScheduler; grants come back
//                   as ClusterGrant{host, dom}.
//   Release         returns a grant to its host's warm pool, where a later
//                   Acquire on any policy can pick it up warm.
//
// Placement runs at request time against live signals (parked warm children,
// free hypervisor-pool frames, children this scheduler placed), entirely on
// the deterministic cluster loop: byte-identical across reruns and clone
// worker counts, like every other layer.
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
#include <vector>

#include "src/base/result.h"
#include "src/core/fabric.h"
#include "src/sched/scheduler.h"

namespace nephele {

// A granted child and the host it lives on.
struct ClusterGrant {
  std::size_t host = 0;
  DomId dom = kDomInvalid;
};

// The per-host signals a placement decision sees. Indexed by host; a host
// whose `eligible` bit is false (no replica of the family) must not be
// chosen.
struct PlacementQuery {
  std::size_t num_hosts = 0;
  std::vector<bool> eligible;
  std::vector<std::size_t> warm_children;    // parked replicas of this family
  std::vector<std::size_t> free_frames;      // hypervisor pool headroom
  std::vector<std::size_t> active_children;  // children this scheduler placed
};
using PlacementFn = std::function<std::size_t(const PlacementQuery&)>;

// kPack spills to the next host once the packed host's free frame pool
// dips below this reserve.
inline constexpr std::size_t kPackReserveFrames = 1024;

// The built-in policies (DESIGN.md §15). All of them serve from a host with
// warm children first; they differ in where cold clones land.
PlacementFn MakePlacementFn(PlacementPolicy policy);

class ClusterScheduler {
 public:
  using GrantCallback = std::function<void(Result<ClusterGrant>)>;

  // Builds one CloneScheduler per fabric host from each host's own config
  // and services; the placement policy comes from fabric.config().placement.
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

  CloneScheduler& host_scheduler(std::size_t host) { return *host_scheds_.at(host); }
  // The family's clone source on `host`; kDomInvalid when replication to
  // that host failed.
  DomId replica(std::size_t family, std::size_t host) const;
  std::size_t active_on(std::size_t host) const { return active_.at(host); }

 private:
  struct Family {
    std::vector<DomId> replica_by_host;  // indexed by host
  };

  PlacementQuery BuildQuery(const Family& family);

  ClusterFabric& fabric_;
  std::vector<std::unique_ptr<CloneScheduler>> host_scheds_;
  std::vector<Family> families_;
  // Children placed and not yet released, per host. Bumped at placement
  // time (not grant time) so a burst of Acquires spreads correctly.
  std::vector<std::size_t> active_;
  const PlacementFn placement_;
  Counter& m_acquires_;
  Counter& m_placements_;
  Counter& m_warm_placements_;
  Counter& m_rejected_;
  Counter& m_released_;
  Counter& m_replicas_created_;
};

}  // namespace nephele

#endif  // SRC_SCHED_CLUSTER_SCHEDULER_H_
