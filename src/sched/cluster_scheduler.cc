#include "src/sched/cluster_scheduler.h"

#include <limits>

namespace nephele {

namespace {

constexpr std::size_t kNoHost = std::numeric_limits<std::size_t>::max();

}  // namespace

ClusterScheduler::HostSlots::HostSlots(Host& host)
    : engine(host.clone_engine()), sched(std::make_unique<CloneScheduler>(host)) {
  engine.AddObserver(this);
}

ClusterScheduler::HostSlots::~HostSlots() { engine.RemoveObserver(this); }

void ClusterScheduler::HostSlots::Free(DomId dom) {
  if (granted.erase(dom) > 0) {
    --active;
  }
}

ClusterScheduler::ClusterScheduler(ClusterFabric& fabric)
    : fabric_(fabric),
      m_acquires_(fabric.metrics().GetCounter("cluster/acquires_total")),
      m_placements_(fabric.metrics().GetCounter("cluster/placements_total")),
      m_warm_placements_(fabric.metrics().GetCounter("cluster/warm_placements")),
      m_rejected_(fabric.metrics().GetCounter("cluster/rejected_total")),
      m_released_(fabric.metrics().GetCounter("cluster/released_total")),
      m_replicas_created_(fabric.metrics().GetCounter("cluster/replicas_created")) {
  hosts_.reserve(fabric.num_hosts());
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    hosts_.push_back(std::make_unique<HostSlots>(fabric.host(i)));
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
    // Spread: the warm eligible host with the fewest active children, else
    // the eligible host with the fewest; ties go to the lowest index.
    std::size_t host = kNoHost;
    bool warm = false;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      const DomId replica = fam.replica_by_host[i];
      if (replica == kDomInvalid) {
        continue;
      }
      const bool warm_i = hosts_[i]->sched->WarmPoolSize(replica) > 0;
      if (host == kNoHost || (warm_i && !warm) ||
          (warm_i == warm && hosts_[i]->active < hosts_[host]->active)) {
        host = i;
        warm = warm_i;
      }
    }
    if (host == kNoHost) {
      m_rejected_.Increment();
      fabric_.loop().Post(SimDuration::Nanos(0), [cb] {
        cb(ErrUnavailable("no eligible host for this family"));
      });
      continue;
    }
    m_placements_.Increment();
    if (warm) {
      m_warm_placements_.Increment();
    }
    HostSlots& slots = *hosts_[host];
    ++slots.active;
    EventLoop& lane = fabric_.host(host).loop();
    lane.AdvanceTo(fabric_.Now());
    Status admitted = slots.sched->Acquire(
        {kDom0, fam.replica_by_host[host], kInvalidMfn, 1},
        [this, host, cb, &slots, &lane](Result<DomId> granted) {
          if (granted.ok()) {
            slots.granted.insert(*granted);
          }
          // The outcome crosses back to the fabric lane at the host's time.
          fabric_.loop().PostAt(lane.Now(), [this, host, cb, &slots, granted] {
            if (granted.ok()) {
              cb(ClusterGrant{host, *granted});
              return;
            }
            --slots.active;
            m_rejected_.Increment();
            cb(granted.status());
          });
        });
    if (!admitted.ok()) {
      // Synchronous admission rejection: the per-host callback never fires.
      --slots.active;
      m_rejected_.Increment();
      fabric_.loop().PostAt(lane.Now(), [cb, admitted] { cb(admitted); });
    }
  }
  return Status::Ok();
}

Result<ReleaseOutcome> ClusterScheduler::Release(const ClusterGrant& grant) {
  if (grant.host >= hosts_.size()) {
    return ErrInvalidArgument("no such host");
  }
  HostSlots& slots = *hosts_[grant.host];
  fabric_.host(grant.host).loop().AdvanceTo(fabric_.Now());
  auto outcome = slots.sched->Release(grant.dom);
  if (outcome.ok()) {
    // A child destroyed inside Release (reset fallback, eviction at
    // capacity 0) already freed its slot in OnDestroy.
    slots.Free(grant.dom);
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
