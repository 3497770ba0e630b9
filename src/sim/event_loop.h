// Single-threaded discrete-event loop driving the whole virtualization
// environment. Components charge virtual time with AdvanceBy() for work that
// happens "inline" (hypercalls, memory copies) and Post() deferred work for
// asynchronous activity (daemon wakeups, packet delivery, timers).
//
// Lanes. A loop is one *lane*: a virtual clock plus the events it posted.
// A default-constructed loop is a standalone one-lane group;
// EventLoop(peer) adds a lane, with its own clock, to the peer's group. The
// cluster fabric gives every host its own lane (src/core/host.h), so hosts
// charge their inline work independently and N hosts compute in parallel
// virtual time. All lanes of a group share one deterministic event queue:
//
//   - Run()/RunUntil() on any lane drive the whole group in global
//     (when, seq) order, with one seq counter for the group. A popped event
//     moves only its own lane's clock, to max(now, when); AdvanceBy and
//     AdvanceByCriticalPath charge only the calling lane.
//   - When Run() returns, every lane reads the same Now(): the latest time
//     any lane reached (after RunUntil, at least the deadline). Code between
//     runs therefore sees one cluster time.
//   - Lanes never read each other's clocks implicitly. Code on one lane that
//     touches another lane's state first hands the time over explicitly:
//     the receiver calls AdvanceTo(sender.Now()), or the sender posts on the
//     receiver with PostAt(sender.Now(), ...). Both are conservative: a
//     hand-off never moves a clock back.
//
// Cancel. Post/PostAt return an EventId; after Cancel(id) the event never
// runs, moves no clock, and counts neither in Run()'s result nor in
// pending_events(). Destroying a lane cancels its queued events.
//
// Layout. The queue is a heap of trivially copyable 24-byte keys
// {when, seq, slot}; each key points at a slot {seq, lane, fn} of a slab
// that a free list recycles. A push or pop therefore moves keys, never a
// callback, and a callback moves out of its slot exactly once, just before
// it runs (it may post, cancel or destroy lanes). Cancel(id) is O(1): the
// id carries its slot, and the slot's seq must still match. A slot is freed
// only when its key pops, cancelled or not, so a slot is never reused while
// a key still names it, and a stale id whose slot was reused cancels
// nothing.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/time.h"

namespace nephele {

// Names one posted event for EventLoop::Cancel by its group-wide sequence
// number and the queue slot that holds it. A default-constructed id names no
// event; cancelling it is a no-op.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

class EventLoop {
 public:
  // A standalone group of one lane.
  EventLoop();
  // A new lane in `peer`'s group, starting at peer.Now().
  explicit EventLoop(EventLoop& peer);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime Now() const { return now_; }

  // Charges `d` of virtual time to the currently-executing activity.
  void AdvanceBy(SimDuration d) { now_ = now_ + d; }

  // Receives a hand-off stamped `t`: this lane cannot act before the sender
  // did. Never moves the clock back.
  void AdvanceTo(SimTime t) {
    if (now_ < t) {
      now_ = t;
    }
  }

  // Charges a batch of concurrent activity lanes: the batch costs its
  // longest lane, not the sum. The parallel clone engine models every child
  // of a batch as one lane, so the charge is independent of how many host
  // worker threads executed the staging.
  void AdvanceByCriticalPath(const std::vector<SimDuration>& lanes) {
    SimDuration critical;
    for (SimDuration d : lanes) {
      if (critical < d) {
        critical = d;
      }
    }
    now_ = now_ + critical;
  }

  // Schedules `fn` on this lane at Now() + delay. Events scheduled for the
  // same instant run in FIFO order (stable by sequence number), which keeps
  // the simulation deterministic.
  EventId Post(SimDuration delay, std::function<void()> fn);

  // Schedules `fn` on this lane at an absolute time (clamped to Now()).
  EventId PostAt(SimTime when, std::function<void()> fn);

  // Drops a queued event in O(1). Returns false when `id` already ran, was
  // already cancelled, or names no event.
  bool Cancel(EventId id);

  // Runs the group's events until the queue drains. Returns the number of
  // events run.
  std::size_t Run();

  // Runs the group's events with scheduled time <= deadline; leaves later
  // events queued and moves every lane to at least the deadline.
  std::size_t RunUntil(SimTime deadline);

  // Queued, uncancelled events of the whole group.
  bool HasPendingEvents() const { return pending_events() != 0; }
  std::size_t pending_events() const;

 private:
  struct Group;

  // Pops and runs the group's events scheduled at or before `deadline`.
  std::size_t RunGroup(SimTime deadline);
  // Sets every lane's clock to the latest lane clock, and at least `floor`.
  void AlignLanes(SimTime floor);

  std::shared_ptr<Group> group_;
  SimTime now_;
};

}  // namespace nephele

#endif  // SRC_SIM_EVENT_LOOP_H_
