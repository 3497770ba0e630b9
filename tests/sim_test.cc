#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "src/sim/series.h"
#include "src/sim/time.h"

namespace nephele {
namespace {

TEST(SimTime, ConversionsRoundTrip) {
  SimDuration d = SimDuration::Millis(1.5);
  EXPECT_EQ(d.ns(), 1'500'000);
  EXPECT_DOUBLE_EQ(d.ToMillis(), 1.5);
  EXPECT_DOUBLE_EQ(SimDuration::Seconds(2).ToSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimDuration::Micros(3).ToMicros(), 3.0);
}

TEST(SimTime, Arithmetic) {
  SimTime t(1000);
  SimTime u = t + SimDuration::Nanos(500);
  EXPECT_EQ(u.ns(), 1500);
  EXPECT_EQ((u - t).ns(), 500);
  EXPECT_LT(t, u);
  SimDuration scaled = SimDuration::Micros(10) * 2.5;
  EXPECT_EQ(scaled.ns(), 25'000);
}

TEST(EventLoop, AdvanceByMovesClock) {
  EventLoop loop;
  EXPECT_EQ(loop.Now().ns(), 0);
  loop.AdvanceBy(SimDuration::Millis(5));
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 5.0);
}

TEST(EventLoop, PostedEventsRunInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Post(SimDuration::Millis(10), [&] { order.push_back(2); });
  loop.Post(SimDuration::Millis(5), [&] { order.push_back(1); });
  loop.Post(SimDuration::Millis(20), [&] { order.push_back(3); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 20.0);
}

TEST(EventLoop, SameInstantIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.Post(SimDuration::Millis(1), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, EventsCanPostEvents) {
  EventLoop loop;
  int fired = 0;
  loop.Post(SimDuration::Millis(1), [&] {
    ++fired;
    loop.Post(SimDuration::Millis(1), [&] { ++fired; });
  });
  EXPECT_EQ(loop.Run(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.Post(SimDuration::Millis(5), [&] { ++fired; });
  loop.Post(SimDuration::Millis(50), [&] { ++fired; });
  loop.RunUntil(SimTime(SimDuration::Millis(10).ns()));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 10.0);
  EXPECT_TRUE(loop.HasPendingEvents());
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.AdvanceBy(SimDuration::Millis(3));
  bool fired = false;
  loop.Post(SimDuration::Millis(-10), [&] { fired = true; });
  loop.Run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 3.0);
}

// ---------------------------------------------------------------------------
// Lanes: several clocks over one deterministic queue
// ---------------------------------------------------------------------------

SimTime Ms(double ms) { return SimTime(SimDuration::Millis(ms).ns()); }

TEST(EventLoopLanes, LanesAdvanceIndependently) {
  EventLoop a;
  EventLoop b(a);
  a.AdvanceBy(SimDuration::Millis(5));
  EXPECT_EQ(a.Now(), Ms(5));
  EXPECT_EQ(b.Now(), Ms(0));
  b.AdvanceByCriticalPath({SimDuration::Millis(2), SimDuration::Millis(3)});
  EXPECT_EQ(a.Now(), Ms(5));
  EXPECT_EQ(b.Now(), Ms(3));
}

TEST(EventLoopLanes, EventsInterleaveInWhenThenSeqOrder) {
  EventLoop a;
  EventLoop b(a);
  std::vector<std::string> order;
  a.Post(SimDuration::Millis(3), [&] { order.push_back("a3"); });
  b.Post(SimDuration::Millis(1), [&] { order.push_back("b1"); });
  a.Post(SimDuration::Millis(1), [&] { order.push_back("a1"); });
  b.Post(SimDuration::Millis(3), [&] { order.push_back("b3"); });
  EXPECT_EQ(b.Run(), 4u);  // any lane drives the whole group
  EXPECT_EQ(order, (std::vector<std::string>{"b1", "a1", "a3", "b3"}));
}

TEST(EventLoopLanes, EventRunsAtItsLaneNowOrItsTimeWhicheverIsLater) {
  EventLoop a;
  EventLoop b(a);
  SimTime seen_a;
  SimTime seen_b;
  a.Post(SimDuration::Millis(1), [&] { a.AdvanceBy(SimDuration::Millis(10)); });
  a.Post(SimDuration::Millis(2), [&] { seen_a = a.Now(); });
  b.Post(SimDuration::Millis(2), [&] { seen_b = b.Now(); });
  a.Run();
  EXPECT_EQ(seen_a, Ms(11));  // a was already past the event's time
  EXPECT_EQ(seen_b, Ms(2));   // a's work did not delay b
}

TEST(EventLoopLanes, RunAlignsLanesOnTheLatestAndRunUntilOnTheDeadline) {
  EventLoop a;
  EventLoop b(a);
  b.Post(SimDuration::Millis(1), [&] { b.AdvanceBy(SimDuration::Millis(4)); });
  a.Run();
  EXPECT_EQ(a.Now(), Ms(5));
  EXPECT_EQ(b.Now(), Ms(5));

  a.Post(SimDuration::Millis(1), [] {});
  b.RunUntil(Ms(20));
  EXPECT_EQ(a.Now(), Ms(20));
  EXPECT_EQ(b.Now(), Ms(20));

  a.AdvanceBy(SimDuration::Millis(15));
  b.RunUntil(Ms(30));
  EXPECT_EQ(a.Now(), Ms(35));
  EXPECT_EQ(b.Now(), Ms(35));
}

TEST(EventLoopLanes, AdvanceToNeverMovesAClockBack) {
  EventLoop a;
  a.AdvanceBy(SimDuration::Millis(5));
  a.AdvanceTo(Ms(2));
  EXPECT_EQ(a.Now(), Ms(5));
  a.AdvanceTo(Ms(7));
  EXPECT_EQ(a.Now(), Ms(7));
}

TEST(EventLoopLanes, CancelledEventNeverRunsNorMovesAClock) {
  EventLoop a;
  EventLoop b(a);
  bool ran = false;
  const EventId doomed = b.Post(SimDuration::Millis(50), [&] { ran = true; });
  a.Post(SimDuration::Millis(1), [] {});
  EXPECT_EQ(a.pending_events(), 2u);
  EXPECT_TRUE(a.Cancel(doomed));  // ids are group-wide
  EXPECT_FALSE(a.Cancel(doomed));
  EXPECT_EQ(a.pending_events(), 1u);
  EXPECT_EQ(a.Run(), 1u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(a.Now(), Ms(1));
  EXPECT_EQ(b.Now(), Ms(1));
  EXPECT_FALSE(b.HasPendingEvents());

  const EventId done = a.Post(SimDuration::Millis(1), [] {});
  a.Run();
  EXPECT_FALSE(a.Cancel(done));
  EXPECT_FALSE(a.Cancel(EventId{}));
}

TEST(EventLoopLanes, DestroyedLaneRunsNoEvents) {
  EventLoop a;
  bool ran = false;
  {
    EventLoop b(a);
    b.Post(SimDuration::Millis(1), [&] { ran = true; });
    a.Post(SimDuration::Millis(2), [] {});
    EXPECT_EQ(a.pending_events(), 2u);
  }
  EXPECT_EQ(a.pending_events(), 1u);
  EXPECT_EQ(a.Run(), 1u);
  EXPECT_FALSE(ran);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, BoundsRespected) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBelow(17), 17u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    std::int64_t v = r.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, GaussianIsRoughlyCentred) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    sum += r.NextGaussian(10.0, 2.0);
  }
  EXPECT_NEAR(sum / 10000.0, 10.0, 0.1);
}

TEST(Series, TableStoresRows) {
  SeriesTable t("test", {"x", "y"});
  t.AddRow({1, 2});
  t.AddRow({3, 4});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Column(1), (std::vector<double>{2, 4}));
}

TEST(Series, RunningStat) {
  RunningStat s;
  for (double x : {2.0, 4.0, 6.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-9);
}

TEST(CostModel, DefaultAnchorsSane) {
  const CostModel& c = DefaultCostModel();
  // Second-fork Fig. 6 anchor: 4096 MiB ~= 1 Mi pages -> ~65 ms + fixed.
  double fork2_ms =
      (c.proc_fork_fixed + SimDuration::Nanos(c.proc_fork_pte_copy.ns() * (1 << 20))).ToMillis();
  EXPECT_NEAR(fork2_ms, 65.2, 5.0);
  // Unikraft KFX reset anchor: ~125 us for 3 dirty pages.
  double reset_us = (c.clone_reset_fixed + c.clone_reset_per_page * 3.0).ToMicros();
  EXPECT_NEAR(reset_us, 125.0, 15.0);
}

}  // namespace
}  // namespace nephele
