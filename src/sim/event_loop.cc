#include "src/sim/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace nephele {

// The queue every lane of a group shares: a binary heap on (when, seq)
// whose events are moved out exactly once when popped. Cancel() leaves a
// tombstone (no lane, no callback) that the pop skips.
struct EventLoop::Group {
  struct Event {
    SimTime when;
    std::uint64_t seq;
    EventLoop* lane;  // null: cancelled
    std::function<void()> fn;
  };
  // std::*_heap build a max-heap; "later" sorts the earliest event on top.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return b.when < a.when;
      }
      return b.seq < a.seq;
    }
  };

  std::vector<Event> heap;
  std::vector<EventLoop*> lanes;
  std::uint64_t next_seq = 1;  // 0 names no event
  std::size_t cancelled = 0;   // tombstones still in the heap

  void Drop(Event& ev) {
    ev.lane = nullptr;
    ev.fn = nullptr;
    ++cancelled;
  }
};

EventLoop::EventLoop() : group_(std::make_shared<Group>()) { group_->lanes.push_back(this); }

EventLoop::EventLoop(EventLoop& peer) : group_(peer.group_), now_(peer.now_) {
  group_->lanes.push_back(this);
}

EventLoop::~EventLoop() {
  Group& g = *group_;
  g.lanes.erase(std::find(g.lanes.begin(), g.lanes.end(), this));
  for (Group::Event& ev : g.heap) {
    if (ev.lane == this) {
      g.Drop(ev);
    }
  }
}

EventId EventLoop::Post(SimDuration delay, std::function<void()> fn) {
  if (delay.ns() < 0) {
    delay = SimDuration(0);
  }
  return PostAt(now_ + delay, std::move(fn));
}

EventId EventLoop::PostAt(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  Group& g = *group_;
  const std::uint64_t seq = g.next_seq++;
  g.heap.push_back(Group::Event{when, seq, this, std::move(fn)});
  std::push_heap(g.heap.begin(), g.heap.end(), Group::Later{});
  return EventId{seq};
}

bool EventLoop::Cancel(EventId id) {
  Group& g = *group_;
  if (id.seq == 0) {
    return false;  // a timer that was never armed
  }
  for (Group::Event& ev : g.heap) {
    if (ev.seq == id.seq) {
      if (ev.lane == nullptr) {
        return false;
      }
      g.Drop(ev);
      return true;
    }
  }
  return false;
}

std::size_t EventLoop::pending_events() const {
  return group_->heap.size() - group_->cancelled;
}

std::size_t EventLoop::RunGroup(SimTime deadline) {
  Group& g = *group_;
  std::size_t count = 0;
  while (!g.heap.empty() && g.heap.front().when <= deadline) {
    std::pop_heap(g.heap.begin(), g.heap.end(), Group::Later{});
    Group::Event ev = std::move(g.heap.back());
    g.heap.pop_back();
    if (ev.lane == nullptr) {
      --g.cancelled;
      continue;
    }
    ev.lane->AdvanceTo(ev.when);
    ev.fn();
    ++count;
  }
  return count;
}

void EventLoop::AlignLanes(SimTime floor) {
  SimTime latest = floor;
  for (const EventLoop* lane : group_->lanes) {
    if (latest < lane->now_) {
      latest = lane->now_;
    }
  }
  for (EventLoop* lane : group_->lanes) {
    lane->now_ = latest;
  }
}

std::size_t EventLoop::Run() {
  const std::size_t count = RunGroup(SimTime(std::numeric_limits<std::int64_t>::max()));
  AlignLanes(now_);
  return count;
}

std::size_t EventLoop::RunUntil(SimTime deadline) {
  const std::size_t count = RunGroup(deadline);
  AlignLanes(deadline);
  return count;
}

}  // namespace nephele
