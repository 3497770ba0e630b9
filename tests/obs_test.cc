#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/core/system.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/event_loop.h"

namespace nephele {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x/count");
  Counter& b = reg.GetCounter("x/count");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  EXPECT_EQ(reg.CounterValue("x/count"), 3u);

  Gauge& g1 = reg.GetGauge("x/level");
  Gauge& g2 = reg.GetGauge("x/level");
  EXPECT_EQ(&g1, &g2);

  Histogram& h1 = reg.GetHistogram("x/lat", {10, 20});
  Histogram& h2 = reg.GetHistogram("x/lat");
  EXPECT_EQ(&h1, &h2);
  // Bounds are fixed by the first call for a name.
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsRegistry, FindReturnsNullForAbsentMetrics) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("nope"), nullptr);
  EXPECT_EQ(reg.FindGauge("nope"), nullptr);
  EXPECT_EQ(reg.FindHistogram("nope"), nullptr);
  EXPECT_EQ(reg.CounterValue("nope"), 0u);
  EXPECT_EQ(reg.GaugeValue("nope"), 0);
}

TEST(MetricsRegistry, GaugeSetAddAndProvider) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("pool/free");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(reg.GaugeValue("pool/free"), 7);

  // A provider-backed gauge is sampled at read time.
  std::int64_t live = 42;
  g.SetProvider([&live] { return live; });
  EXPECT_EQ(reg.GaugeValue("pool/free"), 42);
  live = 17;
  EXPECT_EQ(reg.GaugeValue("pool/free"), 17);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10, 100, 1000});
  // Bucket i counts samples <= bounds[i]; index bounds.size() is overflow.
  h.Observe(10);    // bucket 0 (== bound is inside)
  h.Observe(11);    // bucket 1
  h.Observe(100);   // bucket 1
  h.Observe(999);   // bucket 2
  h.Observe(1001);  // overflow
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10 + 11 + 100 + 999 + 1001);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 1001);
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  Histogram h(Histogram::DefaultLatencyBoundsNs());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

// The registry is safe for concurrent recording (clone-engine workers record
// while the simulation thread plans): counters, gauges, histograms and the
// find-or-create maps all take concurrent traffic without losing an update.
TEST(MetricsRegistry, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  Counter& shared_counter = reg.GetCounter("mt/ops");
  Gauge& shared_gauge = reg.GetGauge("mt/level");
  Histogram& shared_hist = reg.GetHistogram("mt/lat", {64, 512, 4096});

  constexpr int kThreads = 8;
  constexpr std::int64_t kOps = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &shared_counter, &shared_gauge, &shared_hist, t] {
      // A per-thread counter created mid-run contends on the registry map.
      Counter& own = reg.GetCounter("mt/thread/" + std::to_string(t));
      for (std::int64_t i = 0; i < kOps; ++i) {
        shared_counter.Increment();
        own.Increment(2);
        shared_gauge.Add(1);
        shared_hist.Observe(i % 6000);
        // Lookups race the other threads' creations.
        reg.GetHistogram("mt/lat").Observe(i % 6000);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  EXPECT_EQ(shared_counter.value(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(reg.GaugeValue("mt/level"), kThreads * kOps);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.CounterValue("mt/thread/" + std::to_string(t)),
              static_cast<std::uint64_t>(kOps) * 2);
  }
  EXPECT_EQ(shared_hist.count(), static_cast<std::uint64_t>(kThreads) * kOps * 2);
  std::int64_t per_thread_sum = 0;
  for (std::int64_t i = 0; i < kOps; ++i) {
    per_thread_sum += i % 6000;
  }
  EXPECT_EQ(shared_hist.sum(), kThreads * per_thread_sum * 2);
  EXPECT_EQ(shared_hist.min(), 0);
  EXPECT_EQ(shared_hist.max(), 5999);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b <= shared_hist.bounds().size(); ++b) {
    bucket_total += shared_hist.BucketCount(b);
  }
  EXPECT_EQ(bucket_total, shared_hist.count());

  std::string error;
  EXPECT_TRUE(JsonIsWellFormed(reg.ExportJson(), &error)) << error;
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

TEST(MetricsExport, JsonIsWellFormedAndSorted) {
  MetricsRegistry reg;
  reg.GetCounter("b/second").Increment(2);
  reg.GetCounter("a/first").Increment(1);
  reg.GetGauge("g/x").Set(-5);
  reg.GetHistogram("h/lat", {100}).Observe(7);

  std::string json = reg.ExportJson();
  std::string error;
  EXPECT_TRUE(JsonIsWellFormed(json, &error)) << error;
  // Names are emitted in sorted order regardless of creation order.
  EXPECT_LT(json.find("a/first"), json.find("b/second"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(JsonWellFormed, AcceptsValidDocuments) {
  EXPECT_TRUE(JsonIsWellFormed("{}"));
  EXPECT_TRUE(JsonIsWellFormed("[1, 2.5, -3e8, \"s\", true, false, null]"));
  EXPECT_TRUE(JsonIsWellFormed("{\"a\": {\"b\": [\"\\n\\u0041\"]}}"));
  EXPECT_TRUE(JsonIsWellFormed("  42  "));
}

TEST(JsonWellFormed, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonIsWellFormed(""));
  EXPECT_FALSE(JsonIsWellFormed("{"));
  EXPECT_FALSE(JsonIsWellFormed("{\"a\": 1,}"));
  EXPECT_FALSE(JsonIsWellFormed("[1 2]"));
  EXPECT_FALSE(JsonIsWellFormed("{} trailing"));
  EXPECT_FALSE(JsonIsWellFormed("\"bad\\escape\""));
  std::string error;
  EXPECT_FALSE(JsonIsWellFormed("[1,", &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceRecorder, SpansStampSimulatedTime) {
  EventLoop loop;
  TraceRecorder trace(loop);
  loop.AdvanceBy(SimDuration::Micros(5));
  {
    TraceSpan span = trace.BeginSpan("op");
    span.AddArg("dom", 3);
    loop.AdvanceBy(SimDuration::Micros(2));
  }
  ASSERT_EQ(trace.events().size(), 1u);
  const TraceEvent& e = trace.events()[0];
  EXPECT_EQ(e.name, "op");
  EXPECT_EQ(e.start.ns(), 5000);
  EXPECT_EQ(e.end.ns(), 7000);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].first, "dom");
  EXPECT_EQ(e.args[0].second, 3);

  std::string error;
  EXPECT_TRUE(JsonIsWellFormed(trace.ExportJson(), &error)) << error;
}

TEST(TraceRecorder, BoundedBufferDropsExcessEvents) {
  EventLoop loop;
  TraceRecorder trace(loop, /*max_events=*/2);
  for (int i = 0; i < 5; ++i) {
    trace.BeginSpan("op").End();
  }
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.dropped_events(), 3u);
}

TEST(TraceSpan, NullRecorderSpanIsInert) {
  TraceSpan span;  // no recorder
  span.AddArg("k", 1);
  span.End();  // must not crash
}

// ---------------------------------------------------------------------------
// Integration: the wired system feeds the shared registry
// ---------------------------------------------------------------------------

class ObsIntegrationTest : public ::testing::Test {
 protected:
  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 256 * 1024;
    return cfg;
  }

  static DomId BootCloneable(NepheleSystem& system) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = 32;
    auto dom = system.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok());
    return *dom;
  }

  static void CloneAndSettle(NepheleSystem& system, DomId parent, unsigned n = 1) {
    const Domain* d = system.hypervisor().FindDomain(parent);
    Mfn start_info = d->p2m[d->start_info_gfn].mfn;
    auto children = system.clone_engine().Clone({parent, parent, start_info, n});
    ASSERT_TRUE(children.ok()) << children.status().ToString();
    system.Settle();
  }
};

TEST_F(ObsIntegrationTest, CloneRecordsExactlyOneIncrementPerParentPage) {
  NepheleSystem system(SmallSystem());
  DomId parent = BootCloneable(system);
  const Domain* p = system.hypervisor().FindDomain(parent);
  const std::size_t parent_pages = p->p2m.size();

  const MetricsRegistry& m = system.metrics();
  const std::uint64_t shared_before = m.CounterValue("clone/stage1/pages_shared");
  const std::uint64_t private_before = m.CounterValue("clone/stage1/pages_private_copied");
  const std::uint64_t idc_before = m.CounterValue("clone/stage1/pages_idc_shared");

  CloneAndSettle(system, parent);

  // Each parent page takes exactly one of the three stage-1 paths: COW-share,
  // private copy, or IDC true-share.
  const std::uint64_t shared = m.CounterValue("clone/stage1/pages_shared") - shared_before;
  const std::uint64_t copied =
      m.CounterValue("clone/stage1/pages_private_copied") - private_before;
  const std::uint64_t idc = m.CounterValue("clone/stage1/pages_idc_shared") - idc_before;
  EXPECT_EQ(shared + copied + idc, parent_pages);
  EXPECT_GT(shared, 0u);
  // First clone of a never-shared parent: every COW share is a first-share.
  EXPECT_EQ(m.CounterValue("clone/stage1/pages_shared_first"), shared);
  EXPECT_EQ(m.CounterValue("clone/stage1/pages_shared_again"), 0u);

  EXPECT_EQ(m.CounterValue("clone/clones_total"), 1u);
  EXPECT_EQ(m.CounterValue("clone/batches_total"), 1u);
  EXPECT_EQ(m.CounterValue("xencloned/clones_completed"), 1u);
  // Stage timings landed in the shared histograms.
  const Histogram* stage1 = m.FindHistogram("clone/stage1/duration_ns");
  const Histogram* stage2 = m.FindHistogram("clone/stage2/duration_ns");
  ASSERT_NE(stage1, nullptr);
  ASSERT_NE(stage2, nullptr);
  EXPECT_EQ(stage1->count(), 1u);
  EXPECT_EQ(stage2->count(), 1u);
  EXPECT_GT(stage1->sum(), 0);
}

TEST_F(ObsIntegrationTest, SubsystemGaugesTrackLiveState) {
  NepheleSystem system(SmallSystem());
  const MetricsRegistry& m = system.metrics();
  EXPECT_EQ(m.GaugeValue("hypervisor/domains/live"),
            static_cast<std::int64_t>(system.hypervisor().NumDomains()));
  DomId parent = BootCloneable(system);
  const std::int64_t live_before = m.GaugeValue("hypervisor/domains/live");
  CloneAndSettle(system, parent, 2);
  EXPECT_EQ(m.GaugeValue("hypervisor/domains/live"), live_before + 2);
  EXPECT_GT(m.GaugeValue("hypervisor/frames/shared"), 0);
  EXPECT_GT(m.CounterValue("xenstore/requests/total"), 0u);
  EXPECT_GT(m.CounterValue("toolstack/domains_booted"), 0u);
  EXPECT_GT(m.CounterValue("hypervisor/hypercalls"), 0u);
}

TEST_F(ObsIntegrationTest, CloneEngineAggregatesResumeLatency) {
  NepheleSystem system(SmallSystem());
  DomId parent = BootCloneable(system);
  CloneAndSettle(system, parent, 3);
  const MetricsRegistry& m = system.metrics();
  EXPECT_EQ(m.CounterValue("clone/batches_total"), 1u);
  EXPECT_EQ(m.CounterValue("clone/completions"), 3u);
  EXPECT_EQ(m.CounterValue("clone/resume/child_total"), 3u);
  EXPECT_EQ(m.CounterValue("clone/resume/parent_total"), 1u);
  const Histogram* fork_to_resume = m.FindHistogram("clone/fork_to_resume/duration_ns");
  ASSERT_NE(fork_to_resume, nullptr);
  EXPECT_EQ(fork_to_resume->count(), 1u);
  EXPECT_GT(fork_to_resume->sum(), 0);
}

TEST_F(ObsIntegrationTest, TraceCoversCloneAndBootPath) {
  NepheleSystem system(SmallSystem());
  DomId parent = BootCloneable(system);
  CloneAndSettle(system, parent);
  bool saw_boot = false;
  bool saw_stage1 = false;
  bool saw_stage2 = false;
  for (const TraceEvent& e : system.trace().events()) {
    saw_boot = saw_boot || e.name == "toolstack/boot";
    saw_stage1 = saw_stage1 || e.name == "clone/stage1";
    saw_stage2 = saw_stage2 || e.name == "clone/stage2";
  }
  EXPECT_TRUE(saw_boot);
  EXPECT_TRUE(saw_stage1);
  EXPECT_TRUE(saw_stage2);
}

// Runs the same seeded scenario in two fresh systems; ExportJson must be
// byte-identical (the determinism contract benches assert on).
TEST_F(ObsIntegrationTest, ExportJsonIsDeterministicAcrossRuns) {
  auto run = [] {
    NepheleSystem system(SmallSystem());
    DomId parent = BootCloneable(system);
    CloneAndSettle(system, parent, 2);
    return system.metrics().ExportJson();
  };
  std::string first = run();
  std::string second = run();
  EXPECT_EQ(first, second);
  std::string error;
  EXPECT_TRUE(JsonIsWellFormed(first, &error)) << error;
}

}  // namespace
}  // namespace nephele
