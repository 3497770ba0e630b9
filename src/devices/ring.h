// Shared I/O ring between a frontend and its backend. The classic Xen ring
// holds fixed-size request/response slots inside one granted page; we model
// each direction as a bounded queue (the device allocates and grants the
// backing frame), so clone-time copy-vs-share decisions (Sec. 4.2) are
// explicit and testable.

#ifndef SRC_DEVICES_RING_H_
#define SRC_DEVICES_RING_H_

#include <cstddef>
#include <deque>

#include "src/base/result.h"

namespace nephele {

template <typename Slot>
class SharedRing {
 public:
  explicit SharedRing(std::size_t capacity = 256) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  bool full() const { return slots_.size() >= capacity_; }

  Status Push(Slot slot) {
    if (full()) {
      return ErrUnavailable("ring full");
    }
    slots_.push_back(std::move(slot));
    return Status::Ok();
  }

  Result<Slot> Pop() {
    if (slots_.empty()) {
      return ErrUnavailable("ring empty");
    }
    Slot s = std::move(slots_.front());
    slots_.pop_front();
    return s;
  }

  // Clone-time duplication: the child ring starts with the exact pending
  // contents of the parent (network devices; Sec. 4.2 "packets in the TX
  // ring are created based on some pending requests that need to be
  // serviced in both parent and child domains").
  void CopyContentsFrom(const SharedRing& other) {
    slots_ = other.slots_;
    capacity_ = other.capacity_;
  }

 private:
  std::size_t capacity_;
  std::deque<Slot> slots_;
};

}  // namespace nephele

#endif  // SRC_DEVICES_RING_H_
