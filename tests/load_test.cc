// The heavy-traffic request layer (ctest label `load`): the seeded Poisson
// arrival stream with a statistical oracle, the open-loop generator, and the
// request-cloning first-response-wins dispatcher with its exact accounting
// identity
//
//   req/dispatched = req/wins + req/cancelled + req/rejected
//
// checked at quiescent points, under fault injection, and across clone
// worker counts. The stochastic-dominance test reproduces the core claim of
// the request-cloning model (arXiv 2002.04416): duplicating every request
// to d=2 cloned instances and cancelling the loser cuts the latency
// distribution at every quantile at moderate utilization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/fault/fault.h"
#include "src/load/dispatch.h"
#include "src/load/load_gen.h"
#include "src/obs/tsdb/alarm.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/scheduler.h"
#include "src/toolstack/domain_config.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

// ---------------------------------------------------------------------------
// Arrival-process statistical oracle. The gaps are the differences of the
// generator's arrival times (no work besides the arrivals, so long simulated
// windows cost little); the tolerances sit at >= 3 sigma of the sample
// statistics.
// ---------------------------------------------------------------------------

TEST(ArrivalOracleTest, PoissonRateAndCvWithinBand) {
  EventLoop loop;
  MetricsRegistry metrics;
  LoadConfig cfg;
  cfg.rate_rps = 500.0;
  cfg.seed = 11;
  LoadGenerator generator(loop, cfg, metrics);
  constexpr std::size_t kGaps = 100000;
  std::size_t n = 0;
  double sum = 0;
  double sum_sq = 0;
  SimTime prev = loop.Now();
  // ~200 s of arrivals at 500/s; the sink stops the generator at kGaps.
  generator.Start(SimDuration::Seconds(1000), [&](const LoadRequest& r) {
    const double gap = (r.arrival - prev).ToSeconds();
    prev = r.arrival;
    sum += gap;
    sum_sq += gap * gap;
    if (++n == kGaps) {
      generator.Stop();
    }
  });
  loop.Run();
  ASSERT_EQ(n, kGaps);
  const double mean_s = sum / static_cast<double>(kGaps);
  const double var = sum_sq / static_cast<double>(kGaps) - mean_s * mean_s;
  const double cv = std::sqrt(std::max(var, 0.0)) / mean_s;
  // Empirical rate within 2% (sample sd ~0.3%); exponential gaps have CV 1.
  EXPECT_NEAR(1.0 / mean_s, cfg.rate_rps, 0.02 * cfg.rate_rps);
  EXPECT_GT(cv, 0.95);
  EXPECT_LT(cv, 1.05);
}

// ---------------------------------------------------------------------------
// Open-loop generator.
// ---------------------------------------------------------------------------

TEST(LoadGeneratorTest, OpenLoopEmitsSeededMonotonicRequests) {
  EventLoop loop;
  MetricsRegistry metrics;
  LoadConfig cfg;
  cfg.rate_rps = 1000.0;
  cfg.user_population = 10'000'000;
  cfg.seed = 21;
  LoadGenerator generator(loop, cfg, metrics);
  std::vector<LoadRequest> seen;
  generator.Start(SimDuration::Seconds(1),
                  [&seen](const LoadRequest& r) { seen.push_back(r); });
  loop.Run();
  ASSERT_GT(seen.size(), 800u);
  EXPECT_EQ(metrics.CounterValue("load/generated"), seen.size());
  EXPECT_EQ(generator.generated(), seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].id, i + 1);
    EXPECT_LT(seen[i].user, cfg.user_population);
    if (i > 0) {
      EXPECT_GT(seen[i].arrival.ns(), seen[i - 1].arrival.ns());
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch: one parent, duplicates acquired from the clone scheduler and
// released to the warm pool on resolution.
// ---------------------------------------------------------------------------

class ScheduledLoadRun {
 public:
  explicit ScheduledLoadRun(const SystemConfig& cfg)
      : system_(cfg), sched_(system_), dispatcher_(system_, sched_), generator_(system_) {
    DomainConfig dcfg;
    dcfg.name = "load-parent";
    dcfg.memory_mb = 4;
    dcfg.max_clones = 512;
    dcfg.with_vif = true;
    auto parent = system_.toolstack().CreateDomain(dcfg);
    EXPECT_TRUE(parent.ok());
    system_.Settle();
    dispatcher_.SetParent(*parent);
    base_domains_ = system_.hypervisor().NumDomains();
  }

  void Run(SimDuration duration) {
    generator_.Start(duration,
                     [this](const LoadRequest& r) { dispatcher_.Submit(r); });
    system_.Settle();
  }

  // The per-duplicate accounting identity plus the no-leak frame: nothing
  // in flight, nothing queued anywhere, and every clone either parked in
  // the warm pool or destroyed.
  void ExpectQuiescentAccounting() {
    EXPECT_EQ(dispatcher_.dispatched(),
              dispatcher_.wins() + dispatcher_.cancelled() + dispatcher_.rejected());
    EXPECT_EQ(dispatcher_.in_flight(), 0u);
    EXPECT_EQ(dispatcher_.pending(), 0u);
    EXPECT_EQ(sched_.TotalQueued(), 0u);
    EXPECT_EQ(system_.metrics().GaugeValue("req/in_flight"), 0);
    EXPECT_EQ(system_.hypervisor().NumDomains(), base_domains_ + sched_.TotalPooled());
    ExpectFrameConsistency(system_);
  }

  NepheleSystem system_;
  CloneScheduler sched_;
  RequestCloneDispatcher dispatcher_;
  LoadGenerator generator_;
  std::size_t base_domains_ = 0;
};

SystemConfig ScheduledConfig() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  cfg.sched.warm_pool_capacity = 8;
  cfg.sched.max_queue_depth = 64;
  cfg.load.rate_rps = 1000.0;
  cfg.load.clone_factor = 2;
  cfg.load.max_concurrent = 8;
  return cfg;
}

TEST(DispatchAccountingTest, FirstResponseWinsExactAccounting) {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.clone_factor = 3;
  ScheduledLoadRun run(cfg);
  run.Run(SimDuration::Millis(500));
  const std::uint64_t submitted = run.dispatcher_.wins() + run.dispatcher_.failed();
  EXPECT_EQ(submitted, run.generator_.generated());
  // Utilization ~3%: nothing is rejected, so the identity decomposes into
  // one win and d-1 cancellations per request, exactly.
  EXPECT_EQ(run.dispatcher_.rejected(), 0u);
  EXPECT_EQ(run.dispatcher_.failed(), 0u);
  EXPECT_EQ(run.dispatcher_.wins(), run.generator_.generated());
  EXPECT_EQ(run.dispatcher_.cancelled(), 2 * run.dispatcher_.wins());
  EXPECT_EQ(run.dispatcher_.dispatched(), 3 * run.generator_.generated());
  run.ExpectQuiescentAccounting();
}

TEST(DispatchAccountingTest, DispatchFaultDoesNotStrandOrLeak) {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.rate_rps = 2000.0;
  cfg.load.max_concurrent = 4;
  ScheduledLoadRun run(cfg);
  // Fail the first cold batch dispatch: its tickets come back as errors and
  // their duplicates must count rejected — not strand a warm child, not
  // leak a pending request, not wedge a scheduler queue.
  ASSERT_TRUE(run.system_.fault_injector()
                  .Arm("sched/dispatch",
                       FaultSpec::NthHit(1, StatusCode::kUnavailable, "injected"))
                  .ok());
  run.Run(SimDuration::Millis(500));
  EXPECT_GE(run.system_.metrics().CounterValue("sched/batch_failures"), 1u);
  EXPECT_GE(run.dispatcher_.rejected(), 1u);
  EXPECT_GT(run.dispatcher_.wins(), 0u);
  run.ExpectQuiescentAccounting();
}

// The req/latency_p99_ns gauge (the series the req_tail alarm watches) is a
// nearest-rank p99 over the last kTailWindow wins. The run wraps the window
// at least twice, so at every checkpoint the gauge must equal a brute-force
// p99 of the last kTailWindow recorded wins.
std::int64_t NearestRankP99(std::vector<std::int64_t> values) {
  std::sort(values.begin(), values.end());
  const std::size_t rank = (values.size() * 99 + 99) / 100;  // ceil(0.99 n)
  return values[rank - 1];
}

TEST(DispatchTailGaugeTest, P99GaugeIsTheLastWindowsNearestRankAcrossWraps) {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.rate_rps = 2000.0;
  ScheduledLoadRun run(cfg);
  std::vector<std::int64_t> latencies;
  run.dispatcher_.RecordLatenciesTo(&latencies);
  run.generator_.Start(SimDuration::Millis(500),
                       [&run](const LoadRequest& r) { run.dispatcher_.Submit(r); });
  std::size_t checked = 0;
  for (int step = 1; step <= 12; ++step) {
    EventLoop& loop = run.system_.loop();
    loop.RunUntil(loop.Now() + SimDuration::Millis(45));
    if (latencies.empty()) {
      continue;
    }
    const std::size_t n = std::min(kTailWindow, latencies.size());
    const std::vector<std::int64_t> last(latencies.end() - static_cast<std::ptrdiff_t>(n),
                                         latencies.end());
    EXPECT_EQ(run.system_.metrics().GaugeValue("req/latency_p99_ns"), NearestRankP99(last))
        << "after " << latencies.size() << " wins";
    ++checked;
  }
  run.system_.Settle();
  EXPECT_GE(checked, 10u);
  EXPECT_GE(latencies.size(), 3 * kTailWindow);
  EXPECT_EQ(run.system_.metrics().GaugeValue("req/latency_p99_ns"),
            NearestRankP99({latencies.end() - static_cast<std::ptrdiff_t>(kTailWindow),
                            latencies.end()}));
  run.ExpectQuiescentAccounting();
}

// Identical config + seed must produce a byte-identical metrics export —
// across reruns and across clone-worker counts (staging parallelism must
// not reorder anything observable).
std::string RunDigest(unsigned workers) {
  SystemConfig cfg = ScheduledConfig();
  cfg.clone_worker_threads = workers;
  cfg.load.rate_rps = 2000.0;
  cfg.load.seed = 7;
  ScheduledLoadRun run(cfg);
  run.Run(SimDuration::Millis(400));
  return run.system_.metrics().ExportJson();
}

TEST(DispatchDeterminismTest, DigestIdenticalAcrossRerunsAndWorkerCounts) {
  const std::string once = RunDigest(1);
  const std::string again = RunDigest(1);
  const std::string parallel = RunDigest(4);
  EXPECT_EQ(once, again);
  EXPECT_EQ(once, parallel);
  EXPECT_NE(once.find("req/latency_ns"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stochastic dominance (the core claim of arXiv 2002.04416): at moderate
// utilization, first-response-wins with d=2 sits below d=1 at every
// reported quantile, on a fixed seed set.
// ---------------------------------------------------------------------------

std::vector<std::int64_t> WinLatencies(unsigned clone_factor, std::uint64_t seed) {
  SystemConfig cfg = ScheduledConfig();
  cfg.hypervisor.pool_frames = 512 * 1024;
  cfg.load.clone_factor = clone_factor;
  cfg.load.max_concurrent = 4;
  cfg.load.seed = seed;
  // Heavy requests (E[S] ~ 4.5 ms): the cloning model pays one extra warm
  // grant (~ms) per duplicate, so the min-of-d service benefit only shows
  // when service dominates the grant. This is the regime the model targets.
  cfg.load.service_pages = 2048;
  cfg.load.service_p9_rpcs = 100;
  cfg.load.service_net_packets = 50;
  // ~0.4 utilization of the 4 servers, priced off the cost model.
  const double mean_service_s =
      RequestCloneDispatcher::MeanServiceTime(cfg.load, DefaultCostModel()).ToSeconds();
  cfg.load.rate_rps = 0.4 * 4 / mean_service_s;
  ScheduledLoadRun run(cfg);
  std::vector<std::int64_t> latencies;
  run.dispatcher_.RecordLatenciesTo(&latencies);
  run.Run(SimDuration::Seconds(2));
  // Drop the cold-start transient (initial clones cost milliseconds; both
  // arms pay it, but it is not what the quantiles are about).
  latencies.erase(latencies.begin(),
                  latencies.begin() +
                      std::min<std::ptrdiff_t>(50, static_cast<std::ptrdiff_t>(latencies.size())));
  return latencies;
}

std::int64_t Quantile(std::vector<std::int64_t> values, double q) {
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

TEST(RequestCloningDominanceTest, D2DominatesD1AtEveryQuantile) {
  std::vector<std::int64_t> d1;
  std::vector<std::int64_t> d2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<std::int64_t> a = WinLatencies(1, seed);
    std::vector<std::int64_t> b = WinLatencies(2, seed);
    d1.insert(d1.end(), a.begin(), a.end());
    d2.insert(d2.end(), b.begin(), b.end());
  }
  ASSERT_GT(d1.size(), 2500u);
  ASSERT_GT(d2.size(), 2500u);
  EXPECT_LT(Quantile(d2, 0.50), Quantile(d1, 0.50));
  EXPECT_LT(Quantile(d2, 0.90), Quantile(d1, 0.90));
  EXPECT_LT(Quantile(d2, 0.99), Quantile(d1, 0.99));
}

// ---------------------------------------------------------------------------
// The req_tail alarm: sustained overload pushes the windowed p99 gauge past
// the 50 ms raise threshold and the stock rule fires.
// ---------------------------------------------------------------------------

TEST(ReqTailAlarmTest, RaisesUnderSustainedOverload) {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.rate_rps = 20000.0;  // far past one server's ~4k/s
  cfg.load.clone_factor = 1;
  cfg.load.max_concurrent = 1;
  cfg.tsdb.tick_interval = SimDuration::Millis(5);
  cfg.tsdb.ring_capacity = 64;
  ScheduledLoadRun run(cfg);
  TsdbCollector tsdb(run.system_.metrics(), run.system_.loop(), run.system_.config().tsdb);
  AlarmEngine alarms(tsdb, run.system_.metrics());
  for (const AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }
  tsdb.ScheduleTicks(60);  // 300 ms of ticks alongside the overload
  run.Run(SimDuration::Millis(300));
  EXPECT_GE(run.system_.metrics().CounterValue("alarm/req_tail/raised_total"), 1u);
  run.ExpectQuiescentAccounting();
}

}  // namespace
}  // namespace nephele
