// Per-layer metrics read from outside the simulator: registry counters that
// the simulator already exports (never the *Stats structs), and the
// benchmark's own spans.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return Ratio(sum, static_cast<double>(values.size()));
}

RegistryProbe::Snapshot RegistryProbe::Take() const {
  Snapshot snap;
  for (const nephele::MetricsRegistry* reg : registries_) {
    for (const auto& [name, value] : reg->SnapshotCounters()) {
      snap.counters[name] += value;
    }
    for (const auto& [name, value] : reg->SnapshotGauges()) {
      snap.gauges[name] += value;
    }
    for (const auto& [name, sample] : reg->SnapshotHistograms()) {
      const nephele::Histogram* h = reg->FindHistogram(name);
      if (h == nullptr) {
        continue;
      }
      Hist& out = snap.hists[name];
      out.count += h->count();
      out.sum += h->sum();
      out.max = std::max(out.max, h->max());
      out.bounds = h->bounds();
      out.buckets.resize(out.bounds.size() + 1, 0);
      for (std::size_t i = 0; i < out.buckets.size(); ++i) {
        out.buckets[i] += h->BucketCount(i);
      }
    }
  }
  return snap;
}

double Delta::Count(const std::string& name) const {
  auto a = after_.counters.find(name);
  if (a == after_.counters.end()) {
    return 0.0;
  }
  auto b = before_.counters.find(name);
  const std::uint64_t base = b == before_.counters.end() ? 0 : b->second;
  return static_cast<double>(a->second - base);
}

double Delta::Gauge(const std::string& name) const {
  auto a = after_.gauges.find(name);
  return a == after_.gauges.end() ? 0.0 : static_cast<double>(a->second);
}

double Delta::HistMean(const std::string& name) const {
  auto a = after_.hists.find(name);
  if (a == after_.hists.end()) {
    return 0.0;
  }
  auto b = before_.hists.find(name);
  const RegistryProbe::Hist empty;
  const RegistryProbe::Hist& base = b == before_.hists.end() ? empty : b->second;
  return Ratio(static_cast<double>(a->second.sum - base.sum),
               static_cast<double>(a->second.count - base.count));
}

double Delta::HistQuantileMs(const std::string& name, double q) const {
  auto a = after_.hists.find(name);
  if (a == after_.hists.end()) {
    return 0.0;
  }
  auto b = before_.hists.find(name);
  const RegistryProbe::Hist& after = a->second;
  std::vector<std::uint64_t> counts = after.buckets;
  if (b != before_.hists.end()) {
    for (std::size_t i = 0; i < counts.size() && i < b->second.buckets.size(); ++i) {
      counts[i] -= b->second.buckets[i];
    }
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      const std::int64_t bound = i < after.bounds.size() ? after.bounds[i] : after.max;
      return static_cast<double>(bound) / 1e6;
    }
  }
  return static_cast<double>(after.max) / 1e6;
}

void BenchObserver::NoteCloneReturn(const std::vector<nephele::DomId>& children) {
  for (nephele::DomId child : children) {
    returned_at_ns_[child] = loop_.Now().ns();
  }
}

void BenchObserver::OnCloneStart(nephele::DomId /*parent*/, unsigned /*num_clones*/) {
  if (tracer_ != nullptr && tracer_->Innermost("guest.fork")) {
    tracer_->Begin("core.clone");
  }
}

void BenchObserver::OnCloneAborted(nephele::DomId /*parent*/, nephele::DomId child) {
  returned_at_ns_.erase(child);
}

void BenchObserver::OnResume(nephele::DomId dom, bool is_child) {
  if (!is_child) {
    return;
  }
  auto it = returned_at_ns_.find(dom);
  if (it == returned_at_ns_.end()) {
    return;
  }
  stage2_ms_.push_back(static_cast<double>(loop_.Now().ns() - it->second) / 1e6);
  returned_at_ns_.erase(it);
}

void BenchObserver::OnCowFault(nephele::DomId /*dom*/, nephele::Gfn /*gfn*/, bool copied) {
  cow_copies_ += copied ? 1 : 0;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

void FillRegistryLayers(const Delta& d, double ops, MetricMap& m) {
  const double children = d.Count("clone/clones_total");
  m["core.clone.calls"] = d.Count("clone/batches_total");
  m["core.clone.children"] = children;
  m["core.clone.stage1_sim_ms"] = d.HistMean("clone/stage1/duration_ns") / 1e6;
  m["core.clone.pages_shared_per_child"] = Ratio(d.Count("clone/stage1/pages_shared"), children);
  m["core.clone.pages_copied_per_child"] =
      Ratio(d.Count("clone/stage1/pages_private_copied"), children);
  m["core.clone.rolled_back"] = d.Count("clone/rolled_back");

  const double hits = d.Count("xencloned/cache_hits");
  m["core.xencloned.completed"] = d.Count("xencloned/clones_completed");
  m["core.xencloned.aborted"] = d.Count("xencloned/clones_aborted");
  m["core.xencloned.cache_hit_ratio"] = Ratio(hits, hits + d.Count("xencloned/cache_misses"));

  m["xenstore.requests_per_clone"] = Ratio(d.Count("xenstore/requests/total"), children);
  m["xenstore.xs_clone_requests"] = d.Count("xenstore/requests/xs_clone");
  m["xenstore.log_rotations"] = d.Count("xenstore/log/rotations");
  m["xenstore.watches_fired_per_clone"] = Ratio(d.Count("xenstore/watches/fired"), children);
  m["xenstore.entries_end"] = d.Gauge("xenstore/entries");
  m["xenstore.txn_conflicts"] = d.Count("xenstore/txn/conflicts");

  m["hypervisor.frames_saved_by_sharing"] = d.Gauge("hypervisor/frames/saved_by_sharing");
  m["hypervisor.cow_faults_per_op"] = Ratio(d.Count("hypervisor/cow/faults"), ops);
  m["hypervisor.cow_pages_copied"] = d.Count("hypervisor/cow/pages_copied");
  m["hypervisor.hypercalls_per_op"] = Ratio(d.Count("hypervisor/hypercalls"), ops);
  m["hypervisor.grant_maps"] = d.Count("hypervisor/grant/maps");

  m["net.link_tx_bytes"] = d.Count("fabric/link_tx_bytes");
  m["net.link_tx_packets"] = d.Count("fabric/link_tx_packets");
  m["core.fabric.migrate.calls"] = d.Count("fabric/migrations_total");
  m["core.fabric.migrate.failed"] = d.Count("fabric/migrations_failed");

  const double requests = d.Count("sched/requests_total");
  m["sched.acquire.calls"] = requests;
  m["sched.warm_hit_ratio"] = Ratio(d.Count("sched/warm_hits"), requests);
  m["sched.wait_sim_ms.p99"] = d.HistQuantileMs("sched/wait_ns", 0.99);
  m["sched.warm_grant_sim_ms.p99"] = d.HistQuantileMs("sched/warm_grant_ns", 0.99);
  m["sched.batch_size_mean"] = d.HistMean("sched/batch_size");
  m["sched.rejected"] = d.Count("sched/rejected_queue_full");
  m["sched.timeouts"] = d.Count("sched/timeouts");
  m["sched.evictions"] = d.Count("sched/evictions");
  m["sched.reset_pages_per_release"] =
      Ratio(d.Count("clone/reset/pages_restored"), d.Count("clone/reset/count"));
  m["sched.cluster.warm_placement_ratio"] =
      Ratio(d.Count("cluster/warm_placements"), d.Count("cluster/placements_total"));
  m["sched.cluster.rejected"] = d.Count("cluster/rejected_total");

  const double dispatched = d.Count("req/dispatched");
  m["load.dispatched"] = dispatched;
  m["load.wins"] = d.Count("req/wins");
  m["load.cancelled"] = d.Count("req/cancelled");
  m["load.rejected"] = d.Count("req/rejected");
  m["load.failed"] = d.Count("req/failed");
  m["load.win_ratio"] = Ratio(d.Count("req/wins"), dispatched);
  m["load.service_sim_ms.mean"] = d.HistMean("req/service_ns") / 1e6;
}

void FillSpanLayers(const Tracer& tracer, double sim_events, MetricMap& m) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = tracer.SelfWallNs();
  double run_self_ns = 0;
  double create_ns = 0;
  double replicate_ns = 0;
  std::vector<double> fork_us, clone_us, migrate_ms, acquire_us, submit_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto wall = static_cast<double>(s.wall_ns());
    if (std::strcmp(s.name, "toolstack.create") == 0) {
      create_ns += wall;
    } else if (std::strcmp(s.name, "core.fabric.replicate") == 0) {
      replicate_ns += wall;
    }
    if (!s.timed) {
      continue;
    }
    if (std::strcmp(s.name, "sim.run") == 0) {
      run_self_ns += static_cast<double>(self[i]);
    } else if (std::strcmp(s.name, "guest.fork") == 0) {
      fork_us.push_back(wall / 1e3);
    } else if (std::strcmp(s.name, "core.clone") == 0) {
      clone_us.push_back(wall / 1e3);
    } else if (std::strcmp(s.name, "core.fabric.migrate") == 0) {
      migrate_ms.push_back(wall / 1e6);
    } else if (std::strcmp(s.name, "sched.cluster.acquire") == 0) {
      acquire_us.push_back(wall / 1e3);
    } else if (std::strcmp(s.name, "load.submit") == 0) {
      submit_us.push_back(wall / 1e3);
    }
  }
  m["sim.run.wall_ms"] = run_self_ns / 1e6;
  m["sim.host_ns_per_event"] = Ratio(run_self_ns, sim_events);
  m["toolstack.create.wall_ms"] = create_ns / 1e6;
  m["guest.fork.wall_us.p50"] = Quantile(fork_us, 0.50);
  m["guest.fork.wall_us.p99"] = Quantile(fork_us, 0.99);
  m["core.clone.wall_us.p50"] = Quantile(clone_us, 0.50);
  m["core.clone.wall_us.p99"] = Quantile(clone_us, 0.99);
  m["core.fabric.migrate.wall_ms"] = Mean(migrate_ms);
  m["core.fabric.replicate.wall_ms"] = replicate_ns / 1e6;
  m["sched.cluster.acquire.wall_us"] = Mean(acquire_us);
  m["load.submit.wall_us"] = Mean(submit_us);
}

}  // namespace perfbench
