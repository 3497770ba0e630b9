// Process-wide metrics registry: monotonic counters, gauges and fixed-bucket
// histograms keyed by hierarchical names ("clone/stage1/pages_shared").
//
// Every value is an integer and the export walks sorted maps, so
// MetricsRegistry::ExportJson() is byte-identical across runs of the same
// seeded scenario — benches and tests assert on it directly. Handles returned
// by the registry are stable for its lifetime; subsystems cache them at
// construction and update them on the hot path without any lookup.
//
// Threading: individual metric updates are thread-safe (atomic counters and
// gauges, an internal mutex per histogram), so any thread may record
// concurrently. Find-or-create and read paths on the registry are guarded
// by a registry mutex. Gauge providers and the export itself are still
// expected to run on the simulation thread.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nephele {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time value. Either set explicitly or backed by a provider that is
// sampled at read/export time (the netdata collector style — the gauge then
// always reflects live subsystem state without hot-path updates).
class Gauge {
 public:
  using Provider = std::function<std::int64_t()>;

  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void SetProvider(Provider provider) { provider_ = std::move(provider); }

  std::int64_t value() const {
    return provider_ ? provider_() : value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  Provider provider_;
};

// Fixed-bucket histogram over integer samples (durations in nanoseconds,
// page counts, ...). Bucket i counts samples <= bounds[i]; one implicit
// overflow bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  // Upper bounds for simulated-time latencies, in nanoseconds: 1us .. 1s.
  static const std::vector<std::int64_t>& DefaultLatencyBoundsNs();

  void Observe(std::int64_t value);

  std::uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::int64_t sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  std::int64_t min() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0 : min_;
  }
  std::int64_t max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0 : max_;
  }
  double mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Bounds are fixed at construction; no lock needed.
  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  // i in [0, bounds().size()]; the last index is the overflow bucket.
  std::uint64_t BucketCount(std::size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return buckets_[i];
  }

 private:
  std::vector<std::int64_t> bounds_;
  mutable std::mutex mu_;               // guards everything below
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 entries
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. The returned reference stays valid for the registry's
  // lifetime. A histogram's bucket bounds are fixed by the first call for
  // its name; later calls ignore `bounds`.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, std::vector<std::int64_t> bounds = {});

  // Read-only lookup (null when the metric was never created).
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  // Convenience readers for tests/benches; 0 for absent metrics.
  std::uint64_t CounterValue(std::string_view name) const;
  std::int64_t GaugeValue(std::string_view name) const;

  // Point-in-time snapshots of every metric, names sorted — the collector
  // interface of the TSDB (src/obs/tsdb) and the metric-naming audit. One
  // registry lock, then per-metric reads; provider-backed gauges are sampled
  // while taking the snapshot, so like export these run on the simulation
  // thread. Histograms are reduced to their (count, sum) pair: the two
  // series windowed rate/mean queries need.
  struct HistogramSample {
    std::uint64_t count = 0;
    std::int64_t sum = 0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> SnapshotCounters() const;
  std::vector<std::pair<std::string, std::int64_t>> SnapshotGauges() const;
  std::vector<std::pair<std::string, HistogramSample>> SnapshotHistograms() const;

  // Every metric name currently registered (counters, gauges and histograms
  // interleaved), sorted and de-duplicated.
  std::vector<std::string> AllNames() const;

  // Deterministic export: {"counters": {...}, "gauges": {...},
  // "histograms": {...}} with names sorted and integer values only.
  // Provider-backed gauges are sampled at export time.
  std::string ExportJson() const;

 private:
  friend std::string ExportMergedJson(
      const std::vector<std::pair<std::string, const MetricsRegistry*>>& parts);

  mutable std::mutex mu_;  // guards the three maps (not the metrics themselves)
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Merges several registries into one export, each metric name prefixed by
// its part's tag (e.g. "host0/"). The output is byte-for-byte the ExportJson
// format — same sections, sorting and histogram layout — so the cluster
// export of a single host with an empty prefix equals that host's own
// ExportJson(). Null registries are skipped; later parts win name collisions
// (which prefixed callers never produce).
std::string ExportMergedJson(
    const std::vector<std::pair<std::string, const MetricsRegistry*>>& parts);

}  // namespace nephele

#endif  // SRC_OBS_METRICS_H_
