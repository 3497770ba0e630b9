#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/dst/scenario.h"
#include "src/fault/fault.h"
#include "src/obs/tsdb/alarm.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/feedback.h"
#include "src/sched/scheduler.h"
#include "tests/harness_suite.h"

namespace nephele {
namespace {

// Exercises the CloneScheduler control plane over a fully wired system: the
// batching window, warm pool, admission control and timeout paths all run on
// the system's deterministic event loop against the real clone pipeline.
class SchedTest : public ::testing::Test {
 protected:
  SchedTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 256 * 1024;  // 1 GiB pool
    return cfg;
  }

  DomId BootCloneable(std::uint32_t max_clones = 64) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = max_clones;
    cfg.with_vif = true;
    auto dom = system_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok());
    return *dom;
  }

  // A scheduler over system_ with explicit knobs (services — metrics, trace,
  // faults — still come from the system so counters land in its registry).
  std::unique_ptr<CloneScheduler> MakeScheduler(SchedulerConfig cfg) {
    return std::make_unique<CloneScheduler>(system_.hypervisor(), system_.clone_engine(),
                                            system_.toolstack(), system_.loop(), cfg,
                                            system_.services());
  }

  CloneRequest Req(DomId parent, unsigned n = 1) { return {kDom0, parent, kInvalidMfn, n}; }

  // Acquire that records every grant into `out` (errors are appended as
  // kDomInvalid so tests can count failures positionally).
  Status AcquireInto(CloneScheduler& sched, DomId parent, unsigned n,
                     std::vector<DomId>* out, std::vector<Status>* errors = nullptr) {
    return sched.Acquire(Req(parent, n), [out, errors](Result<DomId> r) {
      if (r.ok()) {
        out->push_back(*r);
      } else {
        out->push_back(kDomInvalid);
        if (errors != nullptr) errors->push_back(r.status());
      }
    });
  }

  std::uint64_t CounterValue(const std::string& name) {
    return system_.metrics().CounterValue(name);
  }

  // A parent destroyed while its batch is in flight never resumes, so the
  // request queued behind that batch must fail at the destroy with the
  // vanished-parent status, not at its timeout (or, without one, never).
  void ExpectQueueFailsAtParentDestroy(SimDuration request_timeout) {
    SchedulerConfig cfg;
    cfg.request_timeout = request_timeout;
    auto sched = MakeScheduler(cfg);
    DomId parent = BootCloneable();
    std::vector<Result<DomId>> dispatched;
    std::vector<Result<DomId>> queued;
    ASSERT_TRUE(sched
                    ->Acquire(Req(parent),
                              [&dispatched](Result<DomId> r) { dispatched.push_back(r); })
                    .ok());
    system_.loop().RunUntil(system_.Now() + SimDuration::Millis(3));
    ASSERT_EQ(CounterValue("sched/batches_dispatched"), 1u);
    ASSERT_TRUE(
        sched->Acquire(Req(parent), [&queued](Result<DomId> r) { queued.push_back(r); }).ok());
    ASSERT_EQ(sched->QueueDepth(parent), 1u);

    ASSERT_TRUE(system_.toolstack().DestroyDomain(parent).ok());
    system_.Settle();

    EXPECT_EQ(dispatched.size(), 1u);
    ASSERT_EQ(queued.size(), 1u);
    EXPECT_EQ(queued[0].status().code(), StatusCode::kNotFound);
    EXPECT_EQ(CounterValue("sched/timeouts"), 0u);
    EXPECT_EQ(sched->QueueDepth(parent), 0u);
    EXPECT_EQ(sched->TotalQueued(), 0u);
  }

  NepheleSystem system_;
};

TEST_F(SchedTest, BatchingCoalescesWithinWindow) {
  auto sched = MakeScheduler({});
  DomId parent = BootCloneable();
  std::vector<DomId> granted;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &granted).ok());
  ASSERT_TRUE(AcquireInto(*sched, parent, 2, &granted).ok());
  EXPECT_EQ(sched->QueueDepth(parent), 3u);
  system_.Settle();

  // Both acquires landed inside one window: a single 3-child batch.
  ASSERT_EQ(granted.size(), 3u);
  for (DomId child : granted) {
    const Domain* d = system_.hypervisor().FindDomain(child);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->parent, parent);
  }
  EXPECT_EQ(CounterValue("sched/batches_dispatched"), 1u);
  EXPECT_EQ(CounterValue("clone/batches_total"), 1u);
  EXPECT_EQ(CounterValue("clone/clones_total"), 3u);
  EXPECT_EQ(sched->QueueDepth(parent), 0u);
}

TEST_F(SchedTest, WindowBoundaryDispatchesSeparately) {
  auto sched = MakeScheduler({});
  DomId parent = BootCloneable();
  std::vector<DomId> granted;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &granted).ok());
  system_.Settle();  // first window expires and the batch completes
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &granted).ok());
  system_.Settle();

  ASSERT_EQ(granted.size(), 2u);
  EXPECT_NE(granted[0], granted[1]);
  EXPECT_EQ(CounterValue("sched/batches_dispatched"), 2u);
  EXPECT_EQ(CounterValue("clone/batches_total"), 2u);
}

TEST_F(SchedTest, MaxBatchTriggersImmediateDispatch) {
  SchedulerConfig cfg;
  cfg.batch_window = SimDuration::Seconds(3600);  // would never expire
  cfg.max_batch = 2;
  auto sched = MakeScheduler(cfg);
  DomId parent = BootCloneable();
  std::vector<DomId> granted;
  ASSERT_TRUE(AcquireInto(*sched, parent, 2, &granted).ok());
  system_.Settle();

  // Reaching max_batch dispatched without waiting out the window.
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(CounterValue("sched/batches_dispatched"), 1u);
  EXPECT_LT(system_.Now(), SimTime() + SimDuration::Seconds(3600));
}

TEST_F(SchedTest, WarmPoolHitMissEvict) {
  SchedulerConfig cfg;
  cfg.warm_pool_capacity = 1;
  auto sched = MakeScheduler(cfg);
  DomId parent = BootCloneable();
  std::vector<DomId> cold;
  ASSERT_TRUE(AcquireInto(*sched, parent, 2, &cold).ok());
  system_.Settle();
  ASSERT_EQ(cold.size(), 2u);
  EXPECT_EQ(CounterValue("sched/warm_misses"), 2u);

  // Park both: the second park overflows capacity 1 and evicts the first
  // (LRU) child.
  auto r0 = sched->Release(cold[0]);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0->parked);
  EXPECT_TRUE(r0->reset_applied);
  auto r1 = sched->Release(cold[1]);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->parked);
  EXPECT_EQ(sched->WarmPoolSize(parent), 1u);
  EXPECT_EQ(CounterValue("sched/evictions"), 1u);
  EXPECT_EQ(system_.hypervisor().FindDomain(cold[0]), nullptr);  // evicted
  ASSERT_NE(system_.hypervisor().FindDomain(cold[1]), nullptr);  // parked

  // Next acquire is served warm — from the pool, no new clone batch.
  std::vector<DomId> warm;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &warm).ok());
  system_.Settle();
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0], cold[1]);
  EXPECT_EQ(CounterValue("sched/warm_hits"), 1u);
  EXPECT_EQ(CounterValue("sched/batches_dispatched"), 1u);  // unchanged
  EXPECT_EQ(sched->WarmPoolSize(parent), 0u);

  // Pool drained: the following acquire goes cold again.
  std::vector<DomId> cold2;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &cold2).ok());
  system_.Settle();
  ASSERT_EQ(cold2.size(), 1u);
  EXPECT_EQ(CounterValue("sched/warm_misses"), 3u);
  EXPECT_EQ(CounterValue("sched/batches_dispatched"), 2u);
}

// A parked child destroyed by someone other than the scheduler leaves its
// pool with the destroy: the pool and its gauge shrink at once, and the next
// park has nothing stale to "evict".
TEST_F(SchedTest, ParkedChildDestroyedElsewhereLeavesThePool) {
  SchedulerConfig cfg;
  cfg.warm_pool_capacity = 2;
  auto sched = MakeScheduler(cfg);
  DomId parent = BootCloneable();
  std::vector<DomId> cold;
  ASSERT_TRUE(AcquireInto(*sched, parent, 3, &cold).ok());
  system_.Settle();
  ASSERT_EQ(cold.size(), 3u);
  ASSERT_TRUE(sched->Release(cold[0]).ok());
  ASSERT_TRUE(sched->Release(cold[1]).ok());
  ASSERT_EQ(sched->WarmPoolSize(parent), 2u);

  ASSERT_TRUE(system_.toolstack().DestroyDomain(cold[0]).ok());
  EXPECT_EQ(sched->WarmPoolSize(parent), 1u);
  EXPECT_EQ(sched->TotalPooled(), 1u);
  EXPECT_EQ(system_.metrics().GaugeValue("sched/warm_pool_size"), 1);

  auto parked = sched->Release(cold[2]);
  ASSERT_TRUE(parked.ok());
  EXPECT_TRUE(parked->parked);
  EXPECT_EQ(sched->WarmPoolSize(parent), 2u);
  EXPECT_EQ(CounterValue("sched/evictions"), 0u);
  EXPECT_NE(system_.hypervisor().FindDomain(cold[1]), nullptr);
  EXPECT_NE(system_.hypervisor().FindDomain(cold[2]), nullptr);
}

TEST_F(SchedTest, ReleaseRefusesNonClonesAndDoubleParks) {
  auto sched = MakeScheduler({});
  DomId parent = BootCloneable();
  EXPECT_EQ(sched->Release(parent).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sched->Release(DomId{999}).status().code(), StatusCode::kNotFound);

  std::vector<DomId> granted;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &granted).ok());
  system_.Settle();
  ASSERT_TRUE(sched->Release(granted[0]).ok());
  EXPECT_EQ(sched->Release(granted[0]).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SchedTest, QueueFullRejectsTyped) {
  SchedulerConfig cfg;
  cfg.max_queue_depth = 2;
  auto sched = MakeScheduler(cfg);
  DomId parent = BootCloneable();
  std::vector<DomId> granted;

  // A request larger than the queue is rejected wholesale, synchronously.
  Status too_big = AcquireInto(*sched, parent, 3, &granted);
  EXPECT_EQ(too_big.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(granted.empty());

  // Fill the queue, then one more is refused while the window is pending.
  ASSERT_TRUE(AcquireInto(*sched, parent, 2, &granted).ok());
  Status overflow = AcquireInto(*sched, parent, 1, &granted);
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(CounterValue("sched/rejected_queue_full"), 2u);

  // The accepted request still completes normally.
  system_.Settle();
  EXPECT_EQ(granted.size(), 2u);
}

TEST_F(SchedTest, TimeoutFailsQueuedRequestWithAborted) {
  SchedulerConfig cfg;
  cfg.batch_window = SimDuration::Seconds(3600);  // never dispatches in time
  cfg.request_timeout = SimDuration::Millis(10);
  auto sched = MakeScheduler(cfg);
  DomId parent = BootCloneable();
  std::vector<DomId> granted;
  std::vector<Status> errors;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &granted, &errors).ok());
  system_.Settle();

  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code(), StatusCode::kAborted);
  EXPECT_EQ(CounterValue("sched/timeouts"), 1u);
  EXPECT_EQ(sched->QueueDepth(parent), 0u);
  EXPECT_EQ(CounterValue("sched/batches_dispatched"), 0u);
}

TEST_F(SchedTest, DyingParentFailsQueueWithoutTimeout) {
  ExpectQueueFailsAtParentDestroy(SimDuration::Nanos(0));
}

TEST_F(SchedTest, DyingParentFailsQueueBeforeDefaultTimeout) {
  ExpectQueueFailsAtParentDestroy(SchedulerConfig{}.request_timeout);
}

TEST_F(SchedTest, ResetFailureFallsBackToDestroy) {
  auto sched = MakeScheduler({});
  DomId parent = BootCloneable();
  std::vector<DomId> granted;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &granted).ok());
  system_.Settle();
  ASSERT_EQ(granted.size(), 1u);

  ASSERT_TRUE(system_.fault_injector().Arm("clone/reset", FaultSpec::NthHit(1)).ok());
  auto outcome = sched->Release(granted[0]);
  system_.fault_injector().DisarmAll();

  // Release still succeeds, but the dirty child was destroyed, not parked.
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->parked);
  EXPECT_FALSE(outcome->reset_applied);
  EXPECT_EQ(CounterValue("sched/reset_fallback_destroys"), 1u);
  EXPECT_EQ(sched->WarmPoolSize(parent), 0u);
  EXPECT_EQ(system_.hypervisor().FindDomain(granted[0]), nullptr);
}

// With a zero cap, capacity eviction reclaims the child Release just reset
// and parked, and the outcome says so.
TEST_F(SchedTest, ZeroCapacityEvictsTheReleasedChild) {
  SchedulerConfig cfg;
  cfg.warm_pool_capacity = 0;
  auto sched = MakeScheduler(cfg);
  DomId parent = BootCloneable();
  std::vector<DomId> granted;
  ASSERT_TRUE(AcquireInto(*sched, parent, 1, &granted).ok());
  system_.Settle();
  ASSERT_EQ(granted.size(), 1u);

  auto outcome = sched->Release(granted[0]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->reset_applied);  // reset ran before the eviction
  EXPECT_FALSE(outcome->parked);        // ... but the eviction took it back
  EXPECT_EQ(CounterValue("sched/evictions"), 1u);
  EXPECT_EQ(sched->TotalPooled(), 0u);
  EXPECT_EQ(system_.hypervisor().FindDomain(granted[0]), nullptr);
}

TEST_F(SchedTest, AcquireValidatesRequest) {
  auto sched = MakeScheduler({});
  DomId parent = BootCloneable();
  std::vector<DomId> granted;
  EXPECT_EQ(AcquireInto(*sched, parent, 0, &granted).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AcquireInto(*sched, DomId{777}, 1, &granted).code(), StatusCode::kNotFound);
  EXPECT_TRUE(granted.empty());
}

TEST_F(SchedTest, DrainAllFailsQueuedAndDestroysParked) {
  SchedulerConfig cfg;
  cfg.batch_window = SimDuration::Seconds(3600);
  cfg.request_timeout = SimDuration::Seconds(7200);
  auto sched = MakeScheduler(cfg);
  DomId parent_a = BootCloneable();
  DomId parent_b = BootCloneable();

  // One parked child of parent A...
  std::vector<DomId> granted;
  {
    auto warmup = MakeScheduler({});
    ASSERT_TRUE(AcquireInto(*warmup, parent_a, 1, &granted).ok());
    system_.Settle();
  }
  ASSERT_EQ(granted.size(), 1u);
  ASSERT_TRUE(sched->Release(granted[0]).ok());

  // ... and one queued request for parent B (no pool, never dispatches).
  std::vector<DomId> queued;
  std::vector<Status> errors;
  ASSERT_TRUE(AcquireInto(*sched, parent_b, 1, &queued, &errors).ok());

  sched->DrainAll();
  system_.Settle();
  EXPECT_EQ(sched->TotalPooled(), 0u);
  EXPECT_EQ(sched->TotalQueued(), 0u);
  EXPECT_EQ(system_.hypervisor().FindDomain(granted[0]), nullptr);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code(), StatusCode::kAborted);
}

// The full telemetry feedback loop, end to end on sim time: a capacity-1
// warm pool thrashes (every round parks two children and evicts one), the
// TSDB samples the eviction rate, the warm_pool_thrash alarm raises after
// its hysteresis streak, and SchedulerAlarmFeedback measurably changes the
// scheduler — eviction freezes (the pool grows past capacity) and the batch
// window stretches by kThrashWindowMultiplier. When the eviction rate goes
// quiet the alarm clears, the feedback disengages, and the unfreeze catch-up
// sweep trims the pool back to capacity.
TEST_F(SchedTest, ThrashAlarmFreezesEvictionAndWidensWindow) {
  TsdbConfig tcfg;
  tcfg.tick_interval = SimDuration::Millis(1);
  tcfg.ring_capacity = 16;
  TsdbCollector tsdb(system_.metrics(), system_.loop(), tcfg);
  AlarmEngine alarms(tsdb, system_.metrics());
  for (const AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }

  SchedulerConfig cfg;
  cfg.warm_pool_capacity = 1;
  auto sched = MakeScheduler(cfg);
  SchedulerAlarmFeedback feedback(alarms, *sched);

  DomId parent = BootCloneable();
  const SimDuration base_window = sched->effective_batch_window();

  // Thrash until the alarm engages: one eviction per TSDB tick is a rate of
  // 1.0/tick, far above the 0.5 raise threshold. raise_after=2 makes the
  // engage land deterministically within a handful of rounds.
  int rounds = 0;
  while (!sched->eviction_frozen() && rounds < 8) {
    std::vector<DomId> granted;
    ASSERT_TRUE(AcquireInto(*sched, parent, 2, &granted).ok());
    system_.Settle();
    ASSERT_EQ(granted.size(), 2u);
    for (DomId child : granted) {
      ASSERT_NE(child, kDomInvalid);
      (void)sched->Release(child);
    }
    tsdb.ScheduleTicks(1);
    system_.Settle();
    ++rounds;
  }
  ASSERT_TRUE(sched->eviction_frozen()) << "alarm never engaged after " << rounds
                                        << " thrash rounds";
  EXPECT_EQ(sched->batch_window_scale(), kThrashWindowMultiplier);
  EXPECT_EQ(sched->effective_batch_window().ns(),
            (base_window * kThrashWindowMultiplier).ns());
  EXPECT_EQ(system_.metrics().GaugeValue("sched/eviction_frozen"), 1);
  EXPECT_EQ(CounterValue("sched/feedback_transitions"), 1u);
  EXPECT_EQ(CounterValue("alarm/warm_pool_thrash/raised_total"), 1u);
  EXPECT_EQ(system_.metrics().GaugeValue("alarm/warm_pool_thrash/state"), 1);

  // While frozen, Release parks unconditionally: the pool exceeds its
  // capacity of 1 and the eviction counter stands still.
  const std::uint64_t evictions_at_freeze = CounterValue("sched/evictions");
  std::vector<DomId> granted;
  ASSERT_TRUE(AcquireInto(*sched, parent, 2, &granted).ok());
  system_.Settle();
  for (DomId child : granted) {
    ASSERT_NE(child, kDomInvalid);
    (void)sched->Release(child);
  }
  EXPECT_EQ(sched->WarmPoolSize(parent), 2u);
  EXPECT_EQ(CounterValue("sched/evictions"), evictions_at_freeze);

  // Quiet ticks: the eviction rate decays to zero, the alarm clears after
  // its clear_after streak, and the disengage + catch-up sweep restore the
  // capacity limit.
  tsdb.ScheduleTicks(6);
  system_.Settle();
  EXPECT_FALSE(sched->eviction_frozen());
  EXPECT_EQ(sched->batch_window_scale(), 1.0);
  EXPECT_EQ(sched->effective_batch_window().ns(), base_window.ns());
  EXPECT_EQ(system_.metrics().GaugeValue("sched/eviction_frozen"), 0);
  EXPECT_EQ(CounterValue("sched/feedback_transitions"), 2u);
  EXPECT_EQ(CounterValue("alarm/warm_pool_thrash/cleared_total"), 1u);
  EXPECT_EQ(system_.metrics().GaugeValue("alarm/warm_pool_thrash/state"), 0);
  EXPECT_EQ(sched->WarmPoolSize(parent), 1u);
  EXPECT_EQ(CounterValue("sched/evictions"), evictions_at_freeze + 1);
}

// The scheduler must not break sim-time determinism: a scenario exercising
// sched ops produces a byte-identical digest across reruns and clone-engine
// worker counts (the DST suite's core invariant, asserted here on the sched
// corpus shape specifically).
TEST_F(SchedTest, DigestIdenticalAcrossWorkerCounts) {
  const std::string text =
      "# nephele dst scenario v1\n"
      "seed 42\n"
      "launch\n"
      "write dom=0 slot=0 val=7\n"
      "sched_acquire dom=0 n=2\n"
      "write dom=1 slot=1 val=21\n"
      "sched_release slot=0\n"
      "sched_acquire dom=0 n=1\n"
      "sched_release slot=0\n"
      "sched_acquire dom=0 n=3\n";
  auto scenario = Scenario::FromText(text);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  ExpectStableDigest<DstVocabulary>(*scenario, "SchedTest.DigestIdenticalAcrossWorkerCounts");
}

}  // namespace
}  // namespace nephele
