// The telemetry pipeline: RingSeries edge cases, collector sampling and
// windowed aggregation, alarm hysteresis, and byte-determinism of the
// TSDB/alarm exports across reruns and clone worker counts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/obs/tsdb/alarm.h"
#include "src/obs/tsdb/ring_series.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/toolstack/domain_config.h"

namespace nephele {
namespace {

// ---------------------------------------------------------------------
// RingSeries
// ---------------------------------------------------------------------

TEST(RingSeriesTest, FillsThenWrapsOverwritingOldest) {
  RingSeries ring(4);
  for (std::int64_t v = 0; v < 10; ++v) {
    ring.Append(v);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.next_tick(), 10u);
  EXPECT_EQ(ring.first_retained_tick(), 6u);
  EXPECT_FALSE(ring.Retained(5));
  EXPECT_TRUE(ring.Retained(6));
  for (std::uint64_t t = 6; t < 10; ++t) {
    EXPECT_EQ(ring.AtTick(t), static_cast<std::int64_t>(t)) << "tick " << t;
  }
  EXPECT_EQ(ring.Last(), 9);
}

TEST(RingSeriesTest, PartiallyFilledRetainsEverything) {
  RingSeries ring(8);
  ring.Append(41);
  ring.Append(42);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.first_retained_tick(), 0u);
  EXPECT_EQ(ring.AtTick(0), 41);
  EXPECT_EQ(ring.AtTick(1), 42);
}

TEST(RingSeriesTest, ZeroCapacityClampsToOne) {
  RingSeries ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Append(1);
  ring.Append(2);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.Last(), 2);
  EXPECT_EQ(ring.first_retained_tick(), 1u);
}

// ---------------------------------------------------------------------
// Collector sampling + aggregation
// ---------------------------------------------------------------------

TEST(TsdbCollectorTest, SamplesCountersGaugesAndHistogramPairs) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  registry.GetCounter("demo/counter").Increment(3);
  registry.GetGauge("demo/gauge").Set(-7);
  registry.GetHistogram("demo/hist", {10, 100}).Observe(42);
  tsdb.Tick();
  ASSERT_NE(tsdb.FindSeries("demo/counter"), nullptr);
  EXPECT_EQ(tsdb.FindSeries("demo/counter")->Last(), 3);
  EXPECT_EQ(tsdb.FindSeries("demo/gauge")->Last(), -7);
  EXPECT_EQ(tsdb.FindSeries("demo/hist/count")->Last(), 1);
  EXPECT_EQ(tsdb.FindSeries("demo/hist/sum")->Last(), 42);
  // The collector's own tick counter is a series like any other.
  EXPECT_EQ(tsdb.FindSeries("tsdb/ticks")->Last(), 1);
}

TEST(TsdbCollectorTest, WindowLargerThanHistoryClampsToRetained) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  Counter& c = registry.GetCounter("demo/c");
  for (int i = 0; i < 3; ++i) {
    c.Increment(2);
    tsdb.Tick();
  }
  WindowStats stats = tsdb.Aggregate("demo/c", 1000);
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_EQ(stats.min, 2);
  EXPECT_EQ(stats.max, 6);
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
  EXPECT_DOUBLE_EQ(stats.rate_per_tick, 2.0);
}

TEST(TsdbCollectorTest, WindowClampsToRingCapacityAfterWrap) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbConfig config;
  config.ring_capacity = 4;
  TsdbCollector tsdb(registry, loop, config);
  Gauge& g = registry.GetGauge("demo/g");
  for (int i = 1; i <= 10; ++i) {
    g.Set(i);
    tsdb.Tick();
  }
  WindowStats stats = tsdb.Aggregate("demo/g", 1000);
  EXPECT_EQ(stats.samples, 4u);  // only the last 4 ticks survive the ring
  EXPECT_EQ(stats.min, 7);
  EXPECT_EQ(stats.max, 10);
}

TEST(TsdbCollectorTest, AllIdenticalWindowHasZeroRate) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  registry.GetGauge("demo/g").Set(5);
  for (int i = 0; i < 4; ++i) {
    tsdb.Tick();
  }
  WindowStats stats = tsdb.Aggregate("demo/g", 4);
  EXPECT_EQ(stats.min, 5);
  EXPECT_EQ(stats.max, 5);
  EXPECT_DOUBLE_EQ(stats.mean, 5.0);
  EXPECT_DOUBLE_EQ(stats.rate_per_tick, 0.0);
}

TEST(TsdbCollectorTest, EmptyWindowIsAllZeros) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  WindowStats stats = tsdb.Aggregate("absent/series", 8);
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_EQ(stats.min, 0);
  EXPECT_EQ(stats.max, 0);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_EQ(tsdb.Percentile("absent/series", 8, 99.0), 0);
  // A known series with a zero-width window is equally empty.
  registry.GetGauge("demo/g").Set(1);
  tsdb.Tick();
  EXPECT_EQ(tsdb.Aggregate("demo/g", 0).samples, 0u);
}

TEST(TsdbCollectorTest, PercentileUsesNearestRank) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  Gauge& g = registry.GetGauge("demo/g");
  for (int i = 1; i <= 10; ++i) {
    g.Set(i);
    tsdb.Tick();
  }
  EXPECT_EQ(tsdb.Percentile("demo/g", 10, 0.0), 1);    // rank clamps up to 1
  EXPECT_EQ(tsdb.Percentile("demo/g", 10, 50.0), 5);   // ceil(0.5*10) = 5
  EXPECT_EQ(tsdb.Percentile("demo/g", 10, 99.0), 10);  // ceil(0.99*10) = 10
  EXPECT_EQ(tsdb.Percentile("demo/g", 10, 150.0), 10); // p clamps to 100
}

TEST(TsdbCollectorTest, MidRunSeriesKeepGlobalTickAlignment) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  registry.GetGauge("early/g").Set(1);
  tsdb.Tick();
  tsdb.Tick();
  registry.GetGauge("late/g").Set(9);  // discovered on the third tick
  tsdb.Tick();
  // Ticks are numbered from 1 in the export; a series discovered mid-run
  // keeps the GLOBAL tick numbering (first_tick 3), not its own local 1.
  const std::string json = tsdb.ExportJson();
  EXPECT_NE(json.find("\"early/g\": {\"first_tick\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"late/g\": {\"first_tick\": 3"), std::string::npos) << json;
}

TEST(TsdbCollectorTest, ScheduledTicksRunOnSimTimeAndDrain) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbConfig config;
  config.tick_interval = SimDuration::Millis(5);
  TsdbCollector tsdb(registry, loop, config);
  tsdb.ScheduleTicks(3);
  loop.Run();  // drains: the collector never re-arms itself
  EXPECT_EQ(tsdb.ticks(), 3u);
  EXPECT_EQ(loop.Now().ns(), SimDuration::Millis(15).ns());
}

// ---------------------------------------------------------------------
// Alarms
// ---------------------------------------------------------------------

// True when the single-rule `alarms` export records its last transition at
// `tick`.
bool LastTransitionAt(const AlarmEngine& alarms, std::uint64_t tick) {
  return alarms.ExportJson().find("\"last_transition_tick\": " + std::to_string(tick) + ",") !=
         std::string::npos;
}

AlarmRule MeanRule(double raise_above, double clear_below) {
  AlarmRule rule;
  rule.name = "demo";
  rule.series = "demo/g";
  rule.agg = WindowAgg::kMean;
  rule.window = 1;
  rule.raise_above = raise_above;
  rule.clear_below = clear_below;
  rule.raise_after = 2;
  rule.clear_after = 2;
  return rule;
}

TEST(AlarmEngineTest, RaisesAfterConsecutiveTicksAndClearsWithHysteresis) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  AlarmEngine alarms(tsdb, registry);
  alarms.AddRule(MeanRule(10.0, 5.0));
  Gauge& g = registry.GetGauge("demo/g");

  g.Set(20);
  tsdb.Tick();  // over, streak 1
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kClear);
  tsdb.Tick();  // over, streak 2 -> raised
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kRaised);
  EXPECT_EQ(registry.GaugeValue("alarm/demo/state"), 1);
  EXPECT_EQ(registry.CounterValue("alarm/demo/raised_total"), 1u);
  EXPECT_EQ(registry.CounterValue("alarm/demo/cleared_total"), 0u);
  EXPECT_TRUE(LastTransitionAt(alarms, 1)) << alarms.ExportJson();

  g.Set(7);     // inside the hysteresis band: neither over nor under
  tsdb.Tick();
  tsdb.Tick();
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kRaised) << "band must not clear";

  g.Set(1);
  tsdb.Tick();  // under, streak 1
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kRaised);
  tsdb.Tick();  // under, streak 2 -> cleared
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kClear);
  EXPECT_EQ(registry.GaugeValue("alarm/demo/state"), 0);
  EXPECT_EQ(registry.CounterValue("alarm/demo/raised_total"), 1u);
  EXPECT_EQ(registry.CounterValue("alarm/demo/cleared_total"), 1u);
  EXPECT_TRUE(LastTransitionAt(alarms, 5)) << alarms.ExportJson();
}

TEST(AlarmEngineTest, BoundaryValuesAdvanceNeitherStreakSoNoFlap) {
  MetricsRegistry registry;
  EventLoop loop;
  TsdbCollector tsdb(registry, loop, {});
  AlarmEngine alarms(tsdb, registry);
  alarms.AddRule(MeanRule(10.0, 10.0));  // degenerate band: both thresholds 10
  Gauge& g = registry.GetGauge("demo/g");
  g.Set(10);  // == raise_above: strictly-above never holds
  for (int i = 0; i < 8; ++i) {
    tsdb.Tick();
  }
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kClear);
  EXPECT_EQ(registry.CounterValue("alarm/demo/raised_total"), 0u);

  // An interrupted streak resets: over, over is needed CONSECUTIVELY.
  g.Set(11);
  tsdb.Tick();  // streak 1
  g.Set(10);
  tsdb.Tick();  // boundary resets the streak
  g.Set(11);
  tsdb.Tick();  // streak 1 again
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kClear);
  tsdb.Tick();  // streak 2 -> raised
  EXPECT_EQ(alarms.StateOf("demo"), AlarmState::kRaised);
}

TEST(AlarmEngineTest, DefaultRulesCoverThrashRollbacksStreamStallsAndReqTails) {
  auto rules = AlarmEngine::DefaultNepheleRules();
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].name, "warm_pool_thrash");
  EXPECT_EQ(rules[0].series, "sched/evictions");
  EXPECT_EQ(rules[1].name, "rollback_storm");
  EXPECT_EQ(rules[1].series, "clone/rolled_back");
  EXPECT_EQ(rules[2].name, "stream_stall");
  EXPECT_EQ(rules[2].series, "clone/lazy_pending_pages");
  EXPECT_EQ(rules[2].agg, WindowAgg::kMin);
  EXPECT_EQ(rules[3].name, "req_tail");
  EXPECT_EQ(rules[3].series, "req/latency_p99_ns");
  EXPECT_EQ(rules[3].agg, WindowAgg::kMin);
  for (std::size_t i = 0; i < 2; ++i) {
    const AlarmRule& r = rules[i];
    EXPECT_LT(r.clear_below, r.raise_above) << r.name << ": hysteresis band must be open";
  }
  // stream_stall watches an integral gauge: raise while min pending > 0,
  // clear once it touches 0 — the band is the gap between 0 and 1.
  EXPECT_EQ(rules[2].raise_above, 0.0);
  EXPECT_EQ(rules[2].clear_below, 1.0);
  // req_tail raises only when the *windowed minimum* of the rolling p99
  // stays past 50 ms — a sustained tail, not one slow request.
  EXPECT_EQ(rules[3].raise_above, 50e6);
  EXPECT_LT(rules[3].clear_below, rules[3].raise_above);
  for (const AlarmRule& r : rules) {
    EXPECT_GE(r.raise_after, 2u) << r.name;
  }
}

// ---------------------------------------------------------------------
// Export determinism
// ---------------------------------------------------------------------

// The golden workload shape of golden_schema_test, reduced: boot, clone a
// batch, tick the collector through it.
std::pair<std::string, std::string> RunAndExport(unsigned clone_workers) {
  SystemConfig cfg;
  cfg.clone_worker_threads = clone_workers;
  NepheleSystem sys(cfg);
  TsdbConfig tcfg;
  tcfg.tick_interval = SimDuration::Millis(1);
  tcfg.ring_capacity = 16;
  TsdbCollector tsdb(sys.metrics(), sys.loop(), tcfg);
  AlarmEngine alarms(tsdb, sys.metrics());
  for (AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }
  DomainConfig dcfg;
  dcfg.name = "det";
  dcfg.max_clones = 8;
  auto parent = sys.toolstack().CreateDomain(dcfg);
  EXPECT_TRUE(parent.ok());
  tsdb.ScheduleTicks(4);
  sys.Settle();
  const Domain* d = sys.hypervisor().FindDomain(*parent);
  auto children = sys.clone_engine().Clone({*parent, *parent, d->p2m[d->start_info_gfn].mfn, 4});
  EXPECT_TRUE(children.ok());
  tsdb.ScheduleTicks(4);
  sys.Settle();
  return {tsdb.ExportJson(), alarms.ExportJson()};
}

TEST(TsdbDeterminismTest, ExportsAreByteIdenticalAcrossRerunsAndWorkerCounts) {
  auto [tsdb_w1_a, alarm_w1_a] = RunAndExport(1);
  auto [tsdb_w1_b, alarm_w1_b] = RunAndExport(1);
  auto [tsdb_w4, alarm_w4] = RunAndExport(4);
  EXPECT_EQ(tsdb_w1_a, tsdb_w1_b) << "TSDB export must be stable across reruns";
  EXPECT_EQ(alarm_w1_a, alarm_w1_b) << "alarm export must be stable across reruns";
  EXPECT_EQ(tsdb_w1_a, tsdb_w4) << "TSDB export must not depend on clone worker count";
  EXPECT_EQ(alarm_w1_a, alarm_w4) << "alarm export must not depend on clone worker count";
}

}  // namespace
}  // namespace nephele
