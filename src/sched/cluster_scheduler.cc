#include "src/sched/cluster_scheduler.h"

#include <limits>

namespace nephele {

namespace {

constexpr std::size_t kNoHost = std::numeric_limits<std::size_t>::max();

// Lowest-indexed eligible host satisfying `pred`; kNoHost when none does.
template <typename Pred>
std::size_t FirstEligible(const PlacementQuery& q, Pred pred) {
  for (std::size_t i = 0; i < q.num_hosts; ++i) {
    if (q.eligible[i] && pred(i)) {
      return i;
    }
  }
  return kNoHost;
}

// Eligible host minimizing `key(i)` (ties: lowest index), restricted to
// hosts satisfying `pred`.
template <typename Key, typename Pred>
std::size_t BestEligible(const PlacementQuery& q, Key key, Pred pred) {
  std::size_t best = kNoHost;
  for (std::size_t i = 0; i < q.num_hosts; ++i) {
    if (!q.eligible[i] || !pred(i)) {
      continue;
    }
    if (best == kNoHost || key(i) < key(best)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

PlacementFn MakePlacementFn(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kPack:
      return [](const PlacementQuery& q) -> std::size_t {
        // Warm children trump packing: a parked clone is cheaper than any
        // cold one, wherever it sits.
        if (std::size_t h = FirstEligible(q, [&](std::size_t i) { return q.warm_children[i] > 0; });
            h != kNoHost) {
          return h;
        }
        // Fill the lowest-indexed host until its frame pool dips below the
        // reserve, then spill to the next.
        if (std::size_t h = FirstEligible(
                q, [&](std::size_t i) { return q.free_frames[i] > kPackReserveFrames; });
            h != kNoHost) {
          return h;
        }
        // Every host is under reserve: take the least-pressured one.
        return BestEligible(
            q, [&](std::size_t i) { return std::numeric_limits<std::size_t>::max() - q.free_frames[i]; },
            [](std::size_t) { return true; });
      };
    case PlacementPolicy::kSpread:
      return [](const PlacementQuery& q) -> std::size_t {
        // Among warm hosts, least loaded; else least loaded overall.
        if (std::size_t h = BestEligible(
                q, [&](std::size_t i) { return q.active_children[i]; },
                [&](std::size_t i) { return q.warm_children[i] > 0; });
            h != kNoHost) {
          return h;
        }
        return BestEligible(
            q, [&](std::size_t i) { return q.active_children[i]; },
            [](std::size_t) { return true; });
      };
    case PlacementPolicy::kMemoryAware:
      return [](const PlacementQuery& q) -> std::size_t {
        const auto room = [&](std::size_t i) {
          return std::numeric_limits<std::size_t>::max() - q.free_frames[i];
        };
        if (std::size_t h = BestEligible(q, room,
                                         [&](std::size_t i) { return q.warm_children[i] > 0; });
            h != kNoHost) {
          return h;
        }
        return BestEligible(q, room, [](std::size_t) { return true; });
      };
  }
  return nullptr;  // unreachable: -Werror=switch covers every policy
}

ClusterScheduler::ClusterScheduler(ClusterFabric& fabric)
    : fabric_(fabric),
      active_(fabric.num_hosts(), 0),
      placement_(MakePlacementFn(fabric.config().placement)),
      m_acquires_(fabric.metrics().GetCounter("cluster/acquires_total")),
      m_placements_(fabric.metrics().GetCounter("cluster/placements_total")),
      m_warm_placements_(fabric.metrics().GetCounter("cluster/warm_placements")),
      m_rejected_(fabric.metrics().GetCounter("cluster/rejected_total")),
      m_released_(fabric.metrics().GetCounter("cluster/released_total")),
      m_replicas_created_(fabric.metrics().GetCounter("cluster/replicas_created")) {
  host_scheds_.reserve(fabric.num_hosts());
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    host_scheds_.push_back(std::make_unique<CloneScheduler>(fabric.host(i)));
  }
}

Result<std::size_t> ClusterScheduler::RegisterParent(std::size_t home_host, DomId parent) {
  if (home_host >= fabric_.num_hosts()) {
    return ErrInvalidArgument("no such host");
  }
  if (fabric_.host(home_host).hypervisor().FindDomain(parent) == nullptr) {
    return ErrNotFound("no such domain on the home host");
  }
  Family fam;
  fam.replica_by_host.assign(fabric_.num_hosts(), kDomInvalid);
  fam.replica_by_host[home_host] = parent;
  // Peers a replica cannot reach (partition, injected link fault) simply
  // stay ineligible for this family; placement routes around them.
  for (std::size_t peer = 0; peer < fabric_.num_hosts(); ++peer) {
    if (peer == home_host) {
      continue;
    }
    auto replica = fabric_.ReplicateParent(parent, home_host, peer);
    if (replica.ok()) {
      fam.replica_by_host[peer] = *replica;
      m_replicas_created_.Increment();
    }
  }
  families_.push_back(std::move(fam));
  return families_.size() - 1;
}

PlacementQuery ClusterScheduler::BuildQuery(const Family& family) {
  PlacementQuery q;
  q.num_hosts = fabric_.num_hosts();
  q.eligible.resize(q.num_hosts);
  q.warm_children.resize(q.num_hosts);
  q.free_frames.resize(q.num_hosts);
  q.active_children.resize(q.num_hosts);
  for (std::size_t i = 0; i < q.num_hosts; ++i) {
    const DomId replica = family.replica_by_host[i];
    q.eligible[i] = replica != kDomInvalid;
    q.warm_children[i] = q.eligible[i] ? host_scheds_[i]->WarmPoolSize(replica) : 0;
    q.free_frames[i] = fabric_.host(i).hypervisor().FreePoolFrames();
    q.active_children[i] = active_[i];
  }
  return q;
}

Status ClusterScheduler::Acquire(std::size_t family, unsigned num_children, GrantCallback cb) {
  if (family >= families_.size()) {
    return ErrInvalidArgument("no such family");
  }
  if (num_children == 0) {
    return ErrInvalidArgument("num_children must be > 0");
  }
  m_acquires_.Increment();
  const Family& fam = families_[family];
  for (unsigned child = 0; child < num_children; ++child) {
    const PlacementQuery q = BuildQuery(fam);
    const std::size_t host = placement_(q);
    if (host >= q.num_hosts || !q.eligible[host]) {
      m_rejected_.Increment();
      fabric_.loop().Post(SimDuration::Nanos(0), [cb] {
        cb(ErrUnavailable("no eligible host for this family"));
      });
      continue;
    }
    m_placements_.Increment();
    if (q.warm_children[host] > 0) {
      m_warm_placements_.Increment();
    }
    ++active_[host];
    const DomId replica = fam.replica_by_host[host];
    EventLoop& lane = fabric_.host(host).loop();
    lane.AdvanceTo(fabric_.Now());
    Status admitted = host_scheds_[host]->Acquire(
        {kDom0, replica, kInvalidMfn, 1}, [this, host, cb, &lane](Result<DomId> granted) {
          // The outcome crosses back to the fabric lane at the host's time.
          fabric_.loop().PostAt(lane.Now(), [this, host, cb, granted] {
            if (granted.ok()) {
              cb(ClusterGrant{host, *granted});
              return;
            }
            --active_[host];
            m_rejected_.Increment();
            cb(granted.status());
          });
        });
    if (!admitted.ok()) {
      // Synchronous admission rejection: the per-host callback never fires.
      --active_[host];
      m_rejected_.Increment();
      fabric_.loop().PostAt(lane.Now(), [cb, admitted] { cb(admitted); });
    }
  }
  return Status::Ok();
}

Result<ReleaseOutcome> ClusterScheduler::Release(const ClusterGrant& grant) {
  if (grant.host >= host_scheds_.size()) {
    return ErrInvalidArgument("no such host");
  }
  fabric_.host(grant.host).loop().AdvanceTo(fabric_.Now());
  auto outcome = host_scheds_[grant.host]->Release(grant.dom);
  if (outcome.ok()) {
    if (active_[grant.host] > 0) {
      --active_[grant.host];
    }
    m_released_.Increment();
  }
  return outcome;
}

DomId ClusterScheduler::replica(std::size_t family, std::size_t host) const {
  if (family >= families_.size() || host >= families_[family].replica_by_host.size()) {
    return kDomInvalid;
  }
  return families_[family].replica_by_host[host];
}

}  // namespace nephele
