#include "src/core/fabric.h"

#include "src/hypervisor/types.h"

namespace nephele {

ClusterFabric::ClusterFabric(ClusterConfig config)
    : config_(std::move(config)),
      f_migrate_(faults_.GetPoint("fabric/migrate")),
      m_migrations_(metrics_.GetCounter("fabric/migrations_total")),
      m_migrations_failed_(metrics_.GetCounter("fabric/migrations_failed")),
      m_replications_(metrics_.GetCounter("fabric/replications_total")),
      m_replications_failed_(metrics_.GetCounter("fabric/replications_failed")),
      h_migration_ns_(metrics_.GetHistogram("fabric/migration_ns")),
      h_replication_ns_(metrics_.GetHistogram("fabric/replication_ns")) {
  if (config_.hosts == 0) {
    config_.hosts = 1;
  }
  hosts_.reserve(config_.hosts);
  for (std::size_t i = 0; i < config_.hosts; ++i) {
    hosts_.push_back(std::make_unique<Host>(config_.host, &loop_, i));
  }
  // Full directed mesh. Links share the fabric registry's counters and the
  // single "fabric/link" fault point, so one armed spec covers every link.
  for (std::size_t s = 0; s < config_.hosts; ++s) {
    for (std::size_t d = 0; d < config_.hosts; ++d) {
      if (s == d) {
        continue;
      }
      std::string name =
          "host" + std::to_string(s) + "->host" + std::to_string(d);
      // A transfer occupies the sender: it charges the source host's lane.
      links_.emplace(std::make_pair(s, d),
                     std::make_unique<FabricLink>(hosts_[s]->loop(), std::move(name),
                                                  SystemServices{metrics_, trace_, faults_}));
    }
  }
}

FabricLink& ClusterFabric::link(std::size_t src, std::size_t dst) {
  return *links_.at({src, dst});
}

Status ClusterFabric::SetLinkDown(std::size_t src, std::size_t dst, bool down) {
  auto it = links_.find({src, dst});
  if (it == links_.end()) {
    return ErrInvalidArgument("no such link");
  }
  it->second->SetDown(down);
  return Status::Ok();
}

Status ClusterFabric::Partition(std::size_t host_index, bool down) {
  if (host_index >= hosts_.size()) {
    return ErrInvalidArgument("no such host");
  }
  for (auto& [key, link] : links_) {
    if (key.first == host_index || key.second == host_index) {
      link->SetDown(down);
    }
  }
  return Status::Ok();
}

std::size_t ClusterFabric::StreamPayloadBytes(const MigrationStream& stream) {
  // Written pages ship explicitly; the rest of the allocation is carried as
  // p2m metadata, priced one page of descriptors per domain.
  return stream.written_pages.size() * kPageSize + kPageSize;
}

bool ClusterFabric::Contains(const Host& host) const {
  return host.index() < hosts_.size() && hosts_[host.index()].get() == &host;
}

Status ClusterFabric::CheckHostPair(std::size_t src_host, std::size_t dst_host) const {
  if (src_host >= hosts_.size() || dst_host >= hosts_.size()) {
    return ErrInvalidArgument("no such host");
  }
  if (src_host == dst_host) {
    return ErrInvalidArgument("source and destination host are the same");
  }
  return Status::Ok();
}

Result<DomId> ClusterFabric::Migrate(DomId dom, std::size_t src_host, std::size_t dst_host) {
  NEPHELE_RETURN_IF_ERROR(CheckHostPair(src_host, dst_host));
  const SimTime start = loop_.Now();
  m_migrations_.Increment();
  Host& src = *hosts_[src_host];
  src.loop().AdvanceTo(start);
  Result<DomId> moved = MigrateOnLanes(dom, src_host, dst_host);
  // Every chain, rollbacks included, ends on the source lane.
  loop_.AdvanceTo(src.Now());
  if (!moved.ok()) {
    m_migrations_failed_.Increment();
    return moved;
  }
  h_migration_ns_.Observe((loop_.Now() - start).ns());
  return moved;
}

Result<DomId> ClusterFabric::MigrateOnLanes(DomId dom, std::size_t src_host,
                                            std::size_t dst_host) {
  Host& src = *hosts_[src_host];
  Host& dst = *hosts_[dst_host];
  auto stream = src.toolstack().BeginMigrateOut(dom);
  if (!stream.ok()) {
    return stream.status();
  }
  // From here until CompleteMigrateOut the source sits paused with its
  // state intact: every failure rolls it back to running.
  auto roll_back = [&](Status why) -> Result<DomId> {
    src.toolstack().AbortMigrateOut(dom);
    return why;
  };
  if (Status s = link(src_host, dst_host).Transfer(StreamPayloadBytes(*stream)); !s.ok()) {
    return roll_back(s);
  }
  if (Status s = f_migrate_->Poke(); !s.ok()) {
    return roll_back(s);
  }
  dst.loop().AdvanceTo(src.Now());
  auto in = dst.toolstack().MigrateIn(*stream);
  src.loop().AdvanceTo(dst.Now());
  if (!in.ok()) {
    return roll_back(in.status());
  }
  // Point of no return: the copy runs on the destination; retire the source.
  NEPHELE_RETURN_IF_ERROR(src.toolstack().CompleteMigrateOut(dom));
  return in;
}

Result<DomId> ClusterFabric::ReplicateParent(DomId dom, std::size_t src_host,
                                             std::size_t dst_host) {
  NEPHELE_RETURN_IF_ERROR(CheckHostPair(src_host, dst_host));
  const SimTime start = loop_.Now();
  m_replications_.Increment();
  Host& src = *hosts_[src_host];
  Host& dst = *hosts_[dst_host];
  src.loop().AdvanceTo(start);
  auto fail = [&](Status why) -> Result<DomId> {
    loop_.AdvanceTo(src.Now());
    m_replications_failed_.Increment();
    return why;
  };
  auto stream = src.toolstack().SnapshotDomain(dom);
  if (!stream.ok()) {
    return fail(stream.status());
  }
  if (Status s = link(src_host, dst_host).Transfer(StreamPayloadBytes(*stream)); !s.ok()) {
    return fail(s);
  }
  dst.loop().AdvanceTo(src.Now());
  auto in = dst.toolstack().MigrateIn(*stream);
  // The chain ends on the destination, which booted (or refused) the copy.
  loop_.AdvanceTo(dst.Now());
  if (!in.ok()) {
    m_replications_failed_.Increment();
    return in.status();
  }
  h_replication_ns_.Observe((loop_.Now() - start).ns());
  return in;
}

std::string ClusterFabric::ExportClusterMetricsJson() const {
  std::vector<std::pair<std::string, const MetricsRegistry*>> parts;
  parts.reserve(hosts_.size() + 1);
  parts.emplace_back("", &metrics_);
  for (const auto& host : hosts_) {
    parts.emplace_back(host->metrics_prefix(), &host->metrics());
  }
  return ExportMergedJson(parts);
}

}  // namespace nephele
