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
    hosts_.push_back(std::make_unique<Host>(loop_, config_.host, i));
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
      links_.emplace(std::make_pair(s, d),
                     std::make_unique<FabricLink>(loop_, std::move(name), config_.link,
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

Result<DomId> ClusterFabric::Migrate(DomId dom, std::size_t src_host, std::size_t dst_host) {
  if (src_host >= hosts_.size() || dst_host >= hosts_.size()) {
    return ErrInvalidArgument("no such host");
  }
  if (src_host == dst_host) {
    return ErrInvalidArgument("source and destination host are the same");
  }
  const SimTime start = loop_.Now();
  m_migrations_.Increment();
  Host& src = *hosts_[src_host];
  Host& dst = *hosts_[dst_host];

  auto stream = src.toolstack().BeginMigrateOut(dom);
  if (!stream.ok()) {
    m_migrations_failed_.Increment();
    return stream.status();
  }
  // From here until CompleteMigrateOut the source sits paused with its
  // state intact: every failure rolls it back to running.
  auto roll_back = [&](Status why) -> Result<DomId> {
    src.toolstack().AbortMigrateOut(dom);
    m_migrations_failed_.Increment();
    return why;
  };
  if (Status s = link(src_host, dst_host).Transfer(StreamPayloadBytes(*stream)); !s.ok()) {
    return roll_back(s);
  }
  if (Status s = f_migrate_->Poke(); !s.ok()) {
    return roll_back(s);
  }
  auto in = dst.toolstack().MigrateIn(*stream);
  if (!in.ok()) {
    return roll_back(in.status());
  }
  // Point of no return: the copy runs on the destination; retire the source.
  if (Status s = src.toolstack().CompleteMigrateOut(dom); !s.ok()) {
    m_migrations_failed_.Increment();
    return s;
  }
  h_migration_ns_.Observe((loop_.Now() - start).ns());
  return in;
}

Result<DomId> ClusterFabric::ReplicateParent(DomId dom, std::size_t src_host,
                                             std::size_t dst_host) {
  if (src_host >= hosts_.size() || dst_host >= hosts_.size()) {
    return ErrInvalidArgument("no such host");
  }
  if (src_host == dst_host) {
    return ErrInvalidArgument("source and destination host are the same");
  }
  const SimTime start = loop_.Now();
  m_replications_.Increment();
  auto stream = hosts_[src_host]->toolstack().SnapshotDomain(dom);
  if (!stream.ok()) {
    m_replications_failed_.Increment();
    return stream.status();
  }
  if (Status s = link(src_host, dst_host).Transfer(StreamPayloadBytes(*stream)); !s.ok()) {
    m_replications_failed_.Increment();
    return s;
  }
  auto in = hosts_[dst_host]->toolstack().MigrateIn(*stream);
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
