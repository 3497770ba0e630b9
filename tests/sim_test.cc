#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
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

// A cancelled event keeps its slot until its key pops, and an event that
// ran frees its slot for the next Post: an old id whose slot now holds a
// newer event cancels nothing, and the newer event still runs.
TEST(EventLoop, StaleIdDoesNotCancelTheEventThatReusedItsSlot) {
  EventLoop loop;
  const EventId ran_id = loop.Post(SimDuration::Millis(1), [] {});
  EXPECT_EQ(loop.Run(), 1u);
  int runs = 0;
  const EventId reused = loop.Post(SimDuration::Millis(1), [&] { ++runs; });
  ASSERT_EQ(reused.slot, ran_id.slot);
  EXPECT_FALSE(loop.Cancel(ran_id));
  EXPECT_EQ(loop.pending_events(), 1u);

  const EventId cancelled = loop.Post(SimDuration::Millis(2), [&] { ++runs; });
  EXPECT_TRUE(loop.Cancel(cancelled));
  const EventId after = loop.Post(SimDuration::Millis(3), [&] { ++runs; });
  EXPECT_NE(after.slot, cancelled.slot);  // the tombstone's key is still queued
  EXPECT_EQ(loop.Run(), 2u);
  const EventId late = loop.Post(SimDuration::Millis(1), [&] { ++runs; });
  EXPECT_FALSE(loop.Cancel(cancelled));
  EXPECT_FALSE(loop.Cancel(after));
  EXPECT_EQ(loop.Run(), 1u);
  EXPECT_FALSE(loop.Cancel(late));
  EXPECT_EQ(runs, 3);
}

// ---------------------------------------------------------------------------
// The event queue against a model: seeded random programs over three lanes
// ---------------------------------------------------------------------------

constexpr int kModelLanes = 3;

// One event queue of up to kModelLanes lanes, named by index. Lane 0 always
// exists; lanes 1 and 2 come and go.
class LaneQueue {
 public:
  virtual ~LaneQueue() = default;
  virtual void AddLane(int lane) = 0;
  virtual void DestroyLane(int lane) = 0;
  virtual SimTime Now(int lane) const = 0;
  virtual void AdvanceBy(int lane, SimDuration d) = 0;
  virtual EventId Post(int lane, SimDuration delay, std::function<void()> fn) = 0;
  virtual EventId PostAt(int lane, SimTime when, std::function<void()> fn) = 0;
  virtual bool Cancel(EventId id) = 0;
  virtual std::size_t Run(int lane) = 0;
  virtual std::size_t RunUntil(int lane, SimTime deadline) = 0;
  virtual std::size_t pending_events() const = 0;
};

class RealQueue final : public LaneQueue {
 public:
  RealQueue() { lanes_[0] = std::make_unique<EventLoop>(); }
  void AddLane(int lane) override { lanes_[lane] = std::make_unique<EventLoop>(*lanes_[0]); }
  void DestroyLane(int lane) override { lanes_[lane].reset(); }
  SimTime Now(int lane) const override { return lanes_[lane]->Now(); }
  void AdvanceBy(int lane, SimDuration d) override { lanes_[lane]->AdvanceBy(d); }
  EventId Post(int lane, SimDuration delay, std::function<void()> fn) override {
    return lanes_[lane]->Post(delay, std::move(fn));
  }
  EventId PostAt(int lane, SimTime when, std::function<void()> fn) override {
    return lanes_[lane]->PostAt(when, std::move(fn));
  }
  bool Cancel(EventId id) override { return lanes_[0]->Cancel(id); }
  std::size_t Run(int lane) override { return lanes_[lane]->Run(); }
  std::size_t RunUntil(int lane, SimTime deadline) override {
    return lanes_[lane]->RunUntil(deadline);
  }
  std::size_t pending_events() const override { return lanes_[0]->pending_events(); }

 private:
  std::array<std::unique_ptr<EventLoop>, kModelLanes> lanes_;
};

// The reference: a plain list of queued events; each step runs the least
// (when, seq) by a linear scan, and Cancel erases by seq.
class ModelQueue final : public LaneQueue {
 public:
  ModelQueue() { live_[0] = true; }
  void AddLane(int lane) override {
    live_[lane] = true;
    now_[lane] = now_[0];
  }
  void DestroyLane(int lane) override {
    live_[lane] = false;
    std::erase_if(queued_, [lane](const Event& ev) { return ev.lane == lane; });
  }
  SimTime Now(int lane) const override { return now_[lane]; }
  void AdvanceBy(int lane, SimDuration d) override { now_[lane] = now_[lane] + d; }
  EventId Post(int lane, SimDuration delay, std::function<void()> fn) override {
    return PostAt(lane, now_[lane] + std::max(delay, SimDuration(0)), std::move(fn));
  }
  EventId PostAt(int lane, SimTime when, std::function<void()> fn) override {
    queued_.push_back(Event{std::max(when, now_[lane]), next_seq_, lane, std::move(fn)});
    return EventId{next_seq_++, 0};
  }
  bool Cancel(EventId id) override {
    return std::erase_if(queued_, [id](const Event& ev) { return ev.seq == id.seq; }) != 0;
  }
  std::size_t Run(int lane) override { return RunTo(SimTime(std::numeric_limits<std::int64_t>::max()), now_[lane]); }
  std::size_t RunUntil(int, SimTime deadline) override { return RunTo(deadline, deadline); }
  std::size_t pending_events() const override { return queued_.size(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    int lane;
    std::function<void()> fn;
  };

  std::size_t RunTo(SimTime deadline, SimTime floor) {
    std::size_t count = 0;
    for (;;) {
      auto next = std::min_element(queued_.begin(), queued_.end(), [](const Event& a, const Event& b) {
        return a.when < b.when || (a.when == b.when && a.seq < b.seq);
      });
      if (next == queued_.end() || deadline < next->when) {
        break;
      }
      Event ev = std::move(*next);
      queued_.erase(next);
      now_[ev.lane] = std::max(now_[ev.lane], ev.when);
      ev.fn();
      ++count;
    }
    SimTime latest = floor;
    for (int lane = 0; lane < kModelLanes; ++lane) {
      if (live_[lane]) {
        latest = std::max(latest, now_[lane]);
      }
    }
    for (int lane = 0; lane < kModelLanes; ++lane) {
      now_[lane] = latest;
    }
    return count;
  }

  std::vector<Event> queued_;
  std::array<SimTime, kModelLanes> now_{};
  std::array<bool, kModelLanes> live_{};
  std::uint64_t next_seq_ = 1;
};

// Drives one seeded program against a queue and logs everything the queue
// reports: every run event as (lane, when, seq, lane clock), every Cancel
// result, Run/RunUntil counts, and after each top-level op pending_events()
// and every live lane's Now(). Equal behaviour draws the same random
// numbers, so two queues that behave alike produce identical logs.
class QueueProgram {
 public:
  QueueProgram(LaneQueue& queue, std::uint64_t seed) : q_(queue), rng_(seed) { live_[0] = true; }

  std::size_t cancels_ok() const { return cancels_ok_; }

  std::vector<std::string> Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      Step();
      Log("pending " + std::to_string(q_.pending_events()));
      for (int lane = 0; lane < kModelLanes; ++lane) {
        if (live_[lane]) {
          Log("now " + std::to_string(lane) + " " + std::to_string(q_.Now(lane).ns()));
        }
      }
    }
    Log("drain " + std::to_string(q_.Run(0)));
    Log("pending " + std::to_string(q_.pending_events()));
    return log_;
  }

 private:
  void Log(std::string line) { log_.push_back(std::move(line)); }

  int AnyLiveLane() {
    for (;;) {
      const int lane = static_cast<int>(rng_.NextBelow(kModelLanes));
      if (live_[lane]) {
        return lane;
      }
    }
  }

  void Step() {
    const std::uint64_t r = rng_.NextBelow(100);
    if (r < 35) {
      PostOne();
    } else if (r < 50) {
      CancelOne();
    } else if (r < 65) {
      const int lane = AnyLiveLane();
      const SimTime deadline = q_.Now(lane) + SimDuration(rng_.NextInRange(0, 25));
      Log("run_until " + std::to_string(q_.RunUntil(lane, deadline)));
    } else if (r < 70) {
      Log("run " + std::to_string(q_.Run(AnyLiveLane())));
    } else if (r < 80) {
      q_.AdvanceBy(AnyLiveLane(), SimDuration(rng_.NextInRange(0, 10)));
    } else if (r < 88) {
      const int lane = 1 + static_cast<int>(rng_.NextBelow(kModelLanes - 1));
      if (live_[lane]) {
        q_.DestroyLane(lane);
      } else {
        q_.AddLane(lane);
      }
      live_[lane] = !live_[lane];
      Log("lane " + std::to_string(lane) + (live_[lane] ? " added" : " destroyed"));
    } else {
      PostOne();
      PostOne();
    }
  }

  // Posts on a live lane, by delay (possibly negative) or at an absolute
  // time that may lie in the lane's past.
  void PostOne() {
    const int lane = AnyLiveLane();
    const std::size_t tag = ids_.size();
    ids_.emplace_back();
    auto fn = [this, tag, lane] { OnEvent(tag, lane); };
    EventId id;
    SimTime when;
    if (rng_.NextBool(0.5)) {
      const SimDuration delay(rng_.NextInRange(-3, 30));
      when = q_.Now(lane) + std::max(delay, SimDuration(0));
      id = q_.Post(lane, delay, std::move(fn));
    } else {
      const SimTime at = q_.Now(lane) + SimDuration(rng_.NextInRange(-20, 30));
      when = std::max(at, q_.Now(lane));
      id = q_.PostAt(lane, at, std::move(fn));
    }
    ids_[tag] = id;
    whens_.push_back(when);
    Log("post " + std::to_string(tag) + " lane " + std::to_string(lane) + " seq " +
        std::to_string(id.seq));
  }

  // Cancels an id picked among everything posted so far (live, already run,
  // already cancelled, or on a destroyed lane), or the default id.
  void CancelOne() {
    if (ids_.empty() || rng_.NextBool(0.1)) {
      Log(std::string("cancel default ") + (q_.Cancel(EventId{}) ? "1" : "0"));
      return;
    }
    const std::size_t tag = rng_.NextBelow(ids_.size());
    const bool cancelled = q_.Cancel(ids_[tag]);
    cancels_ok_ += cancelled ? 1 : 0;
    Log("cancel " + std::to_string(tag) + (cancelled ? " 1" : " 0"));
  }

  void OnEvent(std::size_t tag, int lane) {
    Log("ran " + std::to_string(tag) + " lane " + std::to_string(lane) + " when " +
        std::to_string(whens_[tag].ns()) + " seq " + std::to_string(ids_[tag].seq) + " at " +
        std::to_string(q_.Now(lane).ns()));
    const std::uint64_t r = rng_.NextBelow(10);
    if (r < 3) {
      PostOne();
    } else if (r < 5) {
      CancelOne();
    } else if (r < 6) {
      q_.AdvanceBy(lane, SimDuration(rng_.NextInRange(0, 5)));
    } else if (r < 7) {
      Log(std::string("cancel self ") + (q_.Cancel(ids_[tag]) ? "1" : "0"));
    }
  }

  LaneQueue& q_;
  Rng rng_;
  std::array<bool, kModelLanes> live_{};
  std::vector<EventId> ids_;  // by tag
  std::vector<SimTime> whens_;
  std::vector<std::string> log_;
  std::size_t cancels_ok_ = 0;
};

TEST(EventLoopModel, RandomProgramsMatchASortedReferenceList) {
  std::size_t runs = 0;
  std::size_t cancels_ok = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RealQueue real;
    ModelQueue model;
    QueueProgram real_program(real, seed);
    QueueProgram model_program(model, seed);
    const std::vector<std::string> got = real_program.Run(300);
    const std::vector<std::string> want = model_program.Run(300);
    const auto diverged = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    ASSERT_TRUE(diverged.first == got.end() && diverged.second == want.end())
        << "line " << (diverged.first - got.begin()) << ": queue logged '"
        << (diverged.first == got.end() ? "<end>" : *diverged.first) << "', model '"
        << (diverged.second == want.end() ? "<end>" : *diverged.second) << "'";
    runs += std::count_if(got.begin(), got.end(),
                          [](const std::string& line) { return line.rfind("ran ", 0) == 0; });
    cancels_ok += real_program.cancels_ok();
  }
  // The programs exercise what they claim to.
  EXPECT_GT(runs, 10'000u);
  EXPECT_GT(cancels_ok, 1'000u);
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
