#include "src/sim/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace nephele {

// The queue every lane of a group shares, in two parts:
//   - `heap`: a 4-ary min-heap of trivially copyable keys on (when, seq), so
//     a push or pop moves 24-byte keys and never a callback;
//   - `slots`: a slab of {seq, lane, fn} that the keys point into, reused
//     through `free_slots`.
// A slot is freed only when its key pops, cancelled or not, so a reused
// slot never runs under a stale key. Cancel() clears the slot's lane and
// callback and leaves the key as a tombstone that the pop skips.
struct EventLoop::Group {
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  struct Slot {
    std::uint64_t seq = 0;      // 0: free
    EventLoop* lane = nullptr;  // null: free or cancelled
    std::function<void()> fn;
  };

  static constexpr std::size_t kArity = 4;

  std::vector<Key> heap;
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_slots;
  std::vector<EventLoop*> lanes;
  std::uint64_t next_seq = 1;  // 0 names no event
  std::size_t cancelled = 0;   // tombstones still in the heap

  static bool Before(const Key& a, const Key& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  void Push(const Key& key) {
    std::size_t i = heap.size();
    heap.push_back(key);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!Before(key, heap[parent])) {
        break;
      }
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = key;
  }

  Key PopTop() {
    const Key top = heap.front();
    const Key last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0) {
      return top;
    }
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) {
        break;
      }
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (Before(heap[c], heap[best])) {
          best = c;
        }
      }
      if (!Before(heap[best], last)) {
        break;
      }
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
    return top;
  }

  std::uint32_t TakeSlot() {
    if (free_slots.empty()) {
      slots.emplace_back();
      return static_cast<std::uint32_t>(slots.size() - 1);
    }
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
  }

  void Drop(Slot& s) {
    s.lane = nullptr;
    s.fn = nullptr;
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
  for (Group::Slot& s : g.slots) {
    if (s.lane == this) {
      g.Drop(s);
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
  const std::uint32_t slot = g.TakeSlot();
  Group::Slot& s = g.slots[slot];
  s.seq = seq;
  s.lane = this;
  s.fn = std::move(fn);
  g.Push(Group::Key{when, seq, slot});
  return EventId{seq, slot};
}

bool EventLoop::Cancel(EventId id) {
  Group& g = *group_;
  if (id.seq == 0 || id.slot >= g.slots.size()) {
    return false;  // a timer that was never armed
  }
  Group::Slot& s = g.slots[id.slot];
  if (s.seq != id.seq || s.lane == nullptr) {
    return false;  // already ran (the slot is free or reused) or cancelled
  }
  g.Drop(s);
  return true;
}

std::size_t EventLoop::pending_events() const {
  return group_->heap.size() - group_->cancelled;
}

std::size_t EventLoop::RunGroup(SimTime deadline) {
  Group& g = *group_;
  std::size_t count = 0;
  while (!g.heap.empty() && g.heap.front().when <= deadline) {
    const Group::Key key = g.PopTop();
    // Empty the slot before the callback runs: it may post (growing the
    // slab), cancel, or destroy lanes.
    Group::Slot& s = g.slots[key.slot];
    EventLoop* lane = s.lane;
    std::function<void()> fn;
    fn.swap(s.fn);
    s.seq = 0;
    s.lane = nullptr;
    g.free_slots.push_back(key.slot);
    if (lane == nullptr) {
      --g.cancelled;
      continue;
    }
    lane->AdvanceTo(key.when);
    fn();
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
