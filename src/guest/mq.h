// Additional IDC mechanisms — the paper's Sec. 5.3 first extension point
// ("Implementations of new IDC mechanisms in Unikraft would use the internal
// API we implemented for Nephele ... since they all rely on shared memory
// and notifications"):
//
//  * IdcMessageQueue — POSIX-mq-style datagram queue: bounded, message
//    boundaries preserved, multi-producer across the family.
//  * IdcSemaphore    — counting semaphore in a shared word, with an
//    IdcChannel notification on post.

#ifndef SRC_GUEST_MQ_H_
#define SRC_GUEST_MQ_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/idc.h"

namespace nephele {

// Datagram queue over an IDC region. Layout (one or more pages):
//   [0..3]  head slot index
//   [4..7]  tail slot index
//   [8..]   slots: kSlotCount fixed-size slots of {u32 length, payload}.
class IdcMessageQueue {
 public:
  static constexpr std::size_t kSlotSize = 256;     // 4-byte length + payload
  static constexpr std::size_t kMaxMessage = kSlotSize - 4;

  // `slots` datagrams of up to kMaxMessage bytes each.
  static Result<std::unique_ptr<IdcMessageQueue>> Create(Hypervisor& hv, DomId owner,
                                                         std::size_t slots = 62);

  // Enqueues one datagram; kUnavailable when full, kInvalidArgument when
  // oversized. Notifies the peer.
  Status Send(DomId sender, const std::vector<std::uint8_t>& message);

  // Dequeues one datagram; kUnavailable when empty.
  Result<std::vector<std::uint8_t>> Receive(DomId receiver);

  Result<std::size_t> MessagesQueued(DomId accessor) const;
  std::size_t capacity_messages() const { return slots_ - 1; }
  DomId owner() const { return region_.owner(); }

 private:
  static constexpr std::size_t kHeadOffset = 0;
  static constexpr std::size_t kTailOffset = 4;
  static constexpr std::size_t kSlotsOffset = 8;

  IdcMessageQueue(IdcRegion region, IdcChannel channel, std::size_t slots)
      : region_(std::move(region)), channel_(std::move(channel)), slots_(slots) {}

  IdcRegion region_;
  IdcChannel channel_;
  std::size_t slots_;
};

// Counting semaphore in one shared word. Post() increments and notifies;
// TryWait() decrements when positive. Family-wide, like the region backing
// it.
class IdcSemaphore {
 public:
  static Result<std::unique_ptr<IdcSemaphore>> Create(Hypervisor& hv, DomId owner,
                                                      std::uint32_t initial = 0);

  Status Post(DomId caller);
  // Returns true when the semaphore was decremented, false when it was zero.
  Result<bool> TryWait(DomId caller);
  Result<std::uint32_t> Value(DomId caller) const;

  DomId owner() const { return region_.owner(); }

 private:
  IdcSemaphore(IdcRegion region, IdcChannel channel)
      : region_(std::move(region)), channel_(std::move(channel)) {}

  IdcRegion region_;
  IdcChannel channel_;
};

}  // namespace nephele

#endif  // SRC_GUEST_MQ_H_
