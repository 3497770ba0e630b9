// TsdbCollector: the time-series half of the observability layer. Where
// MetricsRegistry::ExportJson() is a single snapshot, the collector turns
// the registry into netdata-style per-tick history: on every tick it
// snapshots EVERY registry metric (counters and gauges as one series each,
// histograms as a `<name>/count` and `<name>/sum` pair) into fixed-size
// RingSeries, discovers new metrics as they appear, and offers windowed
// aggregation (min/max/mean/rate/percentile over the last N ticks) that the
// AlarmEngine judges its rules against.
//
// Ticks run on simulated time and only when the owner asks for them:
// Tick() samples immediately, ScheduleTicks(n) posts n future ticks spaced
// config.tick_interval apart onto the event loop, where they interleave
// deterministically with workload events. The collector never re-arms
// itself, so EventLoop::Run()/Settle() always drains. Exports are
// byte-deterministic for a seeded scenario at any clone worker count.

#ifndef SRC_OBS_TSDB_TSDB_H_
#define SRC_OBS_TSDB_TSDB_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/tsdb/ring_series.h"
#include "src/sim/event_loop.h"
#include "src/sim/time.h"

namespace nephele {

// Knobs of the telemetry pipeline. Each caller passes its own to the
// collector it builds; no host reads them.
struct TsdbConfig {
  // Simulated-time spacing of ScheduleTicks() samples.
  SimDuration tick_interval = SimDuration::Millis(10);
  // Samples retained per series; older ticks are overwritten in ring order.
  std::size_t ring_capacity = 256;
};

// Receives the collector's ticks (the AlarmEngine is one). Observers are
// not owned; remove before destroying one.
class TsdbObserver {
 public:
  virtual ~TsdbObserver() = default;
  // After the samples of `tick` landed in the rings.
  virtual void OnTick(std::uint64_t tick) = 0;
};

// Windowed aggregate over the last N ticks of one series, clamped to what
// the ring still retains. `samples == 0` means the window was empty (absent
// series, or no ticks yet) and every figure is zero.
struct WindowStats {
  std::size_t samples = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double mean = 0.0;
  // First-to-last delta per tick across the window — the per-tick rate of a
  // monotonic counter series. 0 with fewer than two samples.
  double rate_per_tick = 0.0;
};

class TsdbCollector {
 public:
  TsdbCollector(MetricsRegistry& registry, EventLoop& loop, TsdbConfig config = {});

  TsdbCollector(const TsdbCollector&) = delete;
  TsdbCollector& operator=(const TsdbCollector&) = delete;

  const TsdbConfig& config() const { return config_; }
  // Ticks sampled so far; the next Tick() gets this index.
  std::uint64_t ticks() const { return tick_count_; }

  // Samples every registry metric now. New metrics get a fresh series whose
  // first sample lands at the current tick (earlier ticks simply are not
  // retained for it — the netdata gap semantics).
  void Tick();

  // Posts `n` ticks at Now()+i*tick_interval (i = 1..n). Settling the loop
  // runs them; the collector does not re-arm, so the loop always drains.
  void ScheduleTicks(unsigned n);

  // Null when the metric was never sampled.
  const RingSeries* FindSeries(std::string_view name) const;

  // Aggregates the last `window` ticks of `name` (clamped to retained
  // history). Zero-filled stats when the series is absent or empty.
  WindowStats Aggregate(std::string_view name, std::size_t window) const;

  // Nearest-rank percentile (p in [0,100]) over the same window; 0 when the
  // window is empty.
  std::int64_t Percentile(std::string_view name, std::size_t window, double p) const;

  void AddObserver(TsdbObserver* observer);
  void RemoveObserver(TsdbObserver* observer);

  // Deterministic export of the whole database: config, tick count, and
  // every series' retained samples in name order. Integer-only values.
  std::string ExportJson() const;

  // Cluster-level export: each part's ExportJson() nested under its tag
  // (a host's metrics_prefix() with the trailing '/' stripped, e.g.
  // "host0"), tags sorted. Null collectors are skipped. One deterministic
  // document for an N-host fabric, mirroring ExportMergedJson for metrics.
  static std::string ExportMergedJson(
      const std::vector<std::pair<std::string, const TsdbCollector*>>& parts);

  // Collector tick at which a series was discovered: global tick of ring
  // sample i is `base_tick + i`, so exports stay aligned even for metrics
  // that appeared mid-run.
  struct Entry {
    std::uint64_t base_tick;
    RingSeries ring;
  };

 private:
  void AppendSample(const std::string& name, std::int64_t value);

  MetricsRegistry& registry_;
  EventLoop& loop_;
  TsdbConfig config_;

  Counter& m_ticks_;
  Counter& m_samples_;
  Gauge& g_series_;

  std::map<std::string, Entry, std::less<>> series_;
  std::vector<TsdbObserver*> observers_;
  std::uint64_t tick_count_ = 0;
};

}  // namespace nephele

#endif  // SRC_OBS_TSDB_TSDB_H_
