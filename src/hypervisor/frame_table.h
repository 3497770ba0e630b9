// Machine frame table: ownership, sharing and accounting for every 4 KiB
// frame of simulated machine memory.
//
// Page contents are materialised lazily: a frame carries real bytes only
// once somebody writes to it. This keeps density experiments (Fig. 5: ~9000
// 4 MiB guests in a 12 GiB pool) cheap while preserving exact accounting and
// observable COW semantics for frames that are actually used.
//
// Threading model: every mutating operation runs on the simulation thread,
// with one exception — StageShareAll(), which clone-engine workers call
// concurrently while staging a batch. StageShareAll serialises per-frame
// through a small array of shard mutexes (keyed by mfn) and the aggregate
// counters it touches are atomic, so concurrent staging of the same parent
// frames by several workers is exact. The free list is never touched off
// the simulation thread.

#ifndef SRC_HYPERVISOR_FRAME_TABLE_H_
#define SRC_HYPERVISOR_FRAME_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hypervisor/types.h"

namespace nephele {

using PageData = std::array<std::uint8_t, kPageSize>;

// Per-frame metadata (Xen's struct page_info analogue). The field order is
// there for size: the 2-byte owner and the two flags fill the word before
// the refcount, so a record is 16 bytes instead of 24 (24 MiB saved on the
// 12 GiB pool of Fig. 5).
struct FrameInfo {
  DomId owner = kDomInvalid;
  // Set once the frame entered COW sharing (owner == kDomCow).
  bool shared = false;
  bool allocated = false;
  // Number of domains mapping the frame. >1 only while owned by kDomCow.
  // Atomic because clone-engine workers bump it concurrently in
  // StageShareAll.
  std::atomic<std::uint32_t> refcount{0};
  // Lazily materialised contents; null means "all zeroes, never written".
  std::unique_ptr<PageData> data;

  FrameInfo() = default;
  // std::vector needs MoveInsertable elements and std::atomic is not
  // movable; moves only happen single-threaded (construction, f = {}).
  FrameInfo(FrameInfo&& o) noexcept
      : owner(o.owner),
        shared(o.shared),
        allocated(o.allocated),
        refcount(o.refcount.load(std::memory_order_relaxed)),
        data(std::move(o.data)) {}
  FrameInfo& operator=(FrameInfo&& o) noexcept {
    owner = o.owner;
    shared = o.shared;
    allocated = o.allocated;
    refcount.store(o.refcount.load(std::memory_order_relaxed), std::memory_order_relaxed);
    data = std::move(o.data);
    return *this;
  }
};
static_assert(sizeof(FrameInfo) == 16);

class FrameTable {
 public:
  // Creates a pool of `total_frames` free frames.
  explicit FrameTable(std::size_t total_frames);

  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  std::size_t total_frames() const { return frames_.size(); }
  std::size_t free_frames() const { return free_count_; }
  std::size_t allocated_frames() const { return frames_.size() - free_count_; }
  // Number of frames currently in COW sharing (owned by dom_cow).
  std::size_t shared_frames() const { return shared_count_.load(std::memory_order_relaxed); }
  // Sum of refcounts of shared frames minus the frames themselves: how many
  // frame-allocations COW sharing is currently saving.
  std::size_t frames_saved_by_sharing() const {
    return saved_by_sharing_.load(std::memory_order_relaxed);
  }

  // Allocates one frame for `owner`. Fails with kResourceExhausted when the
  // pool is empty.
  Result<Mfn> Alloc(DomId owner);

  // Releases one reference to `mfn`:
  //  - unshared frame: frees it;
  //  - shared frame with refcount > 1: drops the refcount;
  //  - shared frame with refcount == 1: frees it.
  Status Release(Mfn mfn);

  // First-time sharing: transfers ownership to dom_cow and sets refcount to 2
  // (the parent and the first clone). Precondition: frame is allocated and
  // not yet shared.
  Status ShareFirst(Mfn mfn);

  // Adds one more sharer to an already-shared frame.
  Status ShareAgain(Mfn mfn);

  // Worker-side sharing for parallel clone staging: adds one sharer to every
  // frame in `mfns`, entering COW sharing (owner moves to dom_cow) for
  // frames that were still private. Unlike ShareFirst/ShareAgain this is
  // commutative — workers may stage the same frames in any order and the
  // final state only depends on how many staged each — and it is the one
  // FrameTable mutation that is safe to call concurrently. The batch is
  // grouped by shard internally, so a whole child costs kLockShards lock
  // acquisitions rather than one per page; `seed` rotates the shard visit
  // order so concurrently staged children start on different shards and
  // rarely meet on a lock. Precondition (guaranteed by the serial plan
  // phase): every frame allocated.
  void StageShareAll(const std::vector<Mfn>& mfns, std::size_t seed);

  // Exact inverse of ShareFirst, for clone rollback: a shared frame whose
  // two references are the parent and the aborted clone goes back to being
  // privately owned by `new_owner`. Precondition: shared with refcount == 2.
  Status Unshare(Mfn mfn, DomId new_owner);

  // Resolves a write to a shared frame for domain `writer`:
  //  - refcount > 1: allocates a private copy, copies contents, drops one
  //    reference from the shared frame, returns the new mfn (a real copy).
  //  - refcount == 1: transfers ownership from dom_cow to `writer` in place
  //    (Sec. 5.2: "on the next page fault the ownership is transferred"),
  //    returns the same mfn.
  struct CowResolution {
    Mfn mfn;
    bool copied;  // true when a fresh frame was allocated
  };
  Result<CowResolution> ResolveCowWrite(Mfn mfn, DomId writer);

  // Raw accessors.
  const FrameInfo& info(Mfn mfn) const { return frames_[mfn]; }
  bool IsShared(Mfn mfn) const { return frames_[mfn].shared; }
  DomId OwnerOf(Mfn mfn) const { return frames_[mfn].owner; }

  // Shard-locked variant of IsShared for the clone plan phase, which runs
  // on the engine thread while workers flip private frames to shared via
  // StageShareAll. Takes the same shard lock that guards the flip; every
  // other accessor assumes no staging is in flight.
  bool IsSharedSync(Mfn mfn) const {
    std::lock_guard<std::mutex> lock(share_locks_[mfn % kLockShards]);
    return frames_[mfn].shared;
  }

  // Reads `len` bytes at `offset` within the frame. Unwritten frames read as
  // zeroes.
  void ReadBytes(Mfn mfn, std::size_t offset, std::uint8_t* out, std::size_t len) const;

  // Writes bytes into the frame, materialising contents on demand. Does NOT
  // perform COW resolution — callers go through Hypervisor/Domain which holds
  // the p2m. Precondition: frame allocated.
  void WriteBytes(Mfn mfn, std::size_t offset, const std::uint8_t* src, std::size_t len);

  // Copies the full contents of `src` into `dst` (both allocated). Safe from
  // clone-engine workers as long as `dst` is private to the caller and
  // nobody writes `src` meanwhile (the parent is paused during staging).
  void CopyPage(Mfn src, Mfn dst);

 private:
  // Shard count for the StageShareAll mutexes: enough that 4-16 workers
  // rarely collide, small enough to keep the table cheap to construct.
  static constexpr std::size_t kLockShards = 64;

  Status CheckAllocated(Mfn mfn) const;

  std::vector<FrameInfo> frames_;
  std::vector<Mfn> free_list_;
  std::size_t free_count_ = 0;
  std::atomic<std::size_t> shared_count_{0};
  std::atomic<std::size_t> saved_by_sharing_{0};
  mutable std::array<std::mutex, kLockShards> share_locks_;
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_FRAME_TABLE_H_
