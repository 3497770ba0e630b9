// ClusterFabric: N Hosts connected by a simulated network of
// latency/bandwidth-costed links (src/net/link.h). This is the cross-host
// layer the paper's Sec. 8 leaves open: emigration becomes a first-class,
// typed fabric operation — Migrate(dom, src, dst) ships a stop-and-copy
// stream over the inter-host link and rolls the source back cleanly on any
// link or immigration failure — and parent images replicate to peers so
// the cluster scheduler's spread placement (ClusterScheduler,
// src/sched/cluster_scheduler.h) can serve an Acquire on any host holding a
// replica.
// Migrate is the library's one emigration chain: GuestManager::MigrateTo
// (src/guest/guest_manager.h) moves a guest's app state around it.
//
// Time: the fabric's loop() is the *fabric lane* of one event-loop group,
// and every host runs on its own lane of that group (src/sim/event_loop.h),
// so hosts clone in parallel virtual time. Migrate and ReplicateParent are
// explicit hand-off chains: the source lane catches up with the fabric,
// runs Begin/Snapshot and pays the link transfer; the destination catches
// up with the source and runs MigrateIn; the source catches up with the
// destination for Complete/Abort; the fabric lane finally catches up with
// the chain's last step. On idle hosts that costs exactly the serial sum.
//
// Observability: each host keeps its own registry with unchanged metric
// names; the fabric adds its own registry (fabric/..., cluster/...) and
// ExportClusterMetricsJson() merges everything into one deterministic
// export, tagging host metrics "hostN/...". Fabric-level fault points
// ("fabric/link", "fabric/migrate") live in the fabric's own injector so
// per-host fault sweeps keep their exact point surface.

#ifndef SRC_CORE_FABRIC_H_
#define SRC_CORE_FABRIC_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/core/host.h"
#include "src/fault/fault.h"
#include "src/net/link.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/event_loop.h"

namespace nephele {

// Read by nothing: ClusterScheduler::Acquire always places by spread
// (DESIGN.md §15). It stays only while the repo benchmark (perfbench/)
// assigns it.
enum class PlacementPolicy { kSpread };

struct ClusterConfig {
  // Number of hosts in the fabric.
  std::size_t hosts = 1;
  // Per-host configuration; every host is built from this one template.
  // The hosts form a full mesh, one FabricLink per ordered pair, all with
  // the link constants of src/net/link.h.
  SystemConfig host;
  // Unread; see PlacementPolicy.
  PlacementPolicy placement = PlacementPolicy::kSpread;
};

class ClusterFabric {
 public:
  explicit ClusterFabric(ClusterConfig config = {});

  ClusterFabric(const ClusterFabric&) = delete;
  ClusterFabric& operator=(const ClusterFabric&) = delete;

  EventLoop& loop() { return loop_; }
  std::size_t num_hosts() const { return hosts_.size(); }
  Host& host(std::size_t i) { return *hosts_.at(i); }
  const Host& host(std::size_t i) const { return *hosts_.at(i); }

  // Fabric-level observability: link/migration/replication counters and the
  // cluster scheduler's placement metrics. Host-local metrics stay in each
  // host's registry.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  FaultInjector& fault_injector() { return faults_; }
  const ClusterConfig& config() const { return config_; }

  // True when `host` is one of this fabric's hosts, not just a host with a
  // valid index (every standalone Host has index 0).
  bool Contains(const Host& host) const;

  // The directed link src -> dst (created eagerly at construction).
  FabricLink& link(std::size_t src, std::size_t dst);

  // Partition injection. SetLinkDown cuts one direction; Partition cuts
  // every link touching `host_index` in both directions.
  Status SetLinkDown(std::size_t src, std::size_t dst, bool down);
  Status Partition(std::size_t host_index, bool down);

  // First-class cross-host migration: BeginMigrateOut on the source host
  // (typed kFailedPrecondition for family-linked domains, naming the
  // blocking relatives), stream over the src->dst link, MigrateIn on the
  // destination, then CompleteMigrateOut retires the source copy. Any link
  // fault, injected "fabric/migrate" fault or immigration failure rolls the
  // source back to running via AbortMigrateOut — frame conservation holds
  // on both hosts throughout. Returns the domain's id on the destination.
  Result<DomId> Migrate(DomId dom, std::size_t src_host, std::size_t dst_host);

  // Replicates a (possibly family-rooted) parent image to a peer without
  // disturbing the source: SnapshotDomain pauses, serializes and resumes
  // it, the stream ships over the link, and the destination boots its own
  // copy. Cross-host warm pools clone from these replicas.
  Result<DomId> ReplicateParent(DomId dom, std::size_t src_host, std::size_t dst_host);

  // One deterministic JSON export of the whole cluster: fabric metrics
  // unprefixed, each host's metrics under "hostN/...".
  std::string ExportClusterMetricsJson() const;

  // Runs every lane's events until idle; all lanes then read one time.
  void Settle() { loop_.Run(); }
  SimTime Now() const { return loop_.Now(); }

 private:
  // Migrate's and ReplicateParent's argument check: both hosts exist and
  // differ, else kInvalidArgument.
  Status CheckHostPair(std::size_t src_host, std::size_t dst_host) const;
  // Payload bytes a migration/replication stream occupies on the wire.
  static std::size_t StreamPayloadBytes(const MigrationStream& stream);
  // Migrate's Begin -> stream -> MigrateIn -> Complete/Abort chain, each
  // step on the lane of the host it runs on; ends on the source lane.
  Result<DomId> MigrateOnLanes(DomId dom, std::size_t src_host, std::size_t dst_host);

  ClusterConfig config_;
  EventLoop loop_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{loop_};
  FaultInjector faults_{metrics_};
  FaultPoint* f_migrate_;
  std::vector<std::unique_ptr<Host>> hosts_;
  // Directed full mesh, keyed (src, dst).
  std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<FabricLink>> links_;
  Counter& m_migrations_;
  Counter& m_migrations_failed_;
  Counter& m_replications_;
  Counter& m_replications_failed_;
  Histogram& h_migration_ns_;
  Histogram& h_replication_ns_;
};

}  // namespace nephele

#endif  // SRC_CORE_FABRIC_H_
