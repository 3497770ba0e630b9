// Machine frame table: ownership, sharing and accounting for every 4 KiB
// frame of simulated machine memory.
//
// Page contents are materialised lazily: a frame carries real bytes only
// once somebody writes to it. This keeps density experiments (Fig. 5: ~9000
// 4 MiB guests in a 12 GiB pool) cheap while preserving exact accounting and
// observable COW semantics for frames that are actually used.
//
// Records exist only up to the allocation high-water mark. The table takes
// storage for the whole pool once but constructs a frame's record the first
// time the frame is handed out, so a host pays for the frames it uses, not
// for its pool size (Fig. 5's 12 GiB pool is 3 Mi records). The storage is
// never freed, only reused by the next table of the same pool size, so no
// other allocation lands in its untouched rest and a rebuilt host does not
// fault its records in again. Alloc returns the most recently released
// frame first and otherwise the lowest mfn never handed out: the order of a
// free list pre-filled lowest mfn on top, without building one. info() of a
// never-used mfn reads a free record.
//
// Threading model: every mutating operation runs on the simulation thread.
// Clone-engine workers touch the table only through CopyPage, into frames
// the plan allocated for their own child; the share references of a clone
// batch are taken serially at commit. Records never move: the plan keeps
// allocating (constructing records past the high-water mark) while workers
// copy into earlier children's frames, and ResolveCowWrite holds a record
// across Alloc. Nothing here needs a lock.

#ifndef SRC_HYPERVISOR_FRAME_TABLE_H_
#define SRC_HYPERVISOR_FRAME_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
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
  std::uint32_t refcount = 0;
  // Lazily materialised contents; null means "all zeroes, never written".
  std::unique_ptr<PageData> data;
};
static_assert(sizeof(FrameInfo) == 16);

class FrameTable {
 public:
  // Creates a pool of `total_frames` free frames.
  explicit FrameTable(std::size_t total_frames);
  ~FrameTable();

  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  std::size_t total_frames() const { return total_; }
  std::size_t free_frames() const { return free_list_.size() + (total_ - used_); }
  std::size_t allocated_frames() const { return used_ - free_list_.size(); }
  // Number of frames currently in COW sharing (owned by dom_cow).
  std::size_t shared_frames() const { return shared_count_; }
  // Sum of refcounts of shared frames minus the frames themselves: how many
  // frame-allocations COW sharing is currently saving.
  std::size_t frames_saved_by_sharing() const { return saved_by_sharing_; }

  // Allocates one frame for `owner`. Fails with kResourceExhausted when the
  // pool is empty.
  Result<Mfn> Alloc(DomId owner);

  // Releases one reference to `mfn`:
  //  - unshared frame: frees it;
  //  - shared frame with refcount > 1: drops the refcount;
  //  - shared frame with refcount == 1: frees it.
  Status Release(Mfn mfn);

  // Adds `sharers` references to `mfn`. A private frame enters COW sharing:
  // ownership moves to dom_cow and the refcount becomes 1 + sharers (its
  // owner plus the new sharers). Returns true when the frame entered
  // sharing in this call, false when it was already shared; callers pick
  // first-share vs re-share costs from it. Fails with kInvalidArgument when
  // the frame is not allocated.
  Result<bool> Share(Mfn mfn, std::uint32_t sharers);

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

  // Raw accessors; any mfn below total_frames() is valid. Simulation thread
  // only: a worker reading the high-water mark would race the plan's Alloc.
  const FrameInfo& info(Mfn mfn) const { return mfn < used_ ? frames_[mfn] : kNeverUsed; }
  bool IsShared(Mfn mfn) const { return info(mfn).shared; }
  DomId OwnerOf(Mfn mfn) const { return info(mfn).owner; }

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
  static const FrameInfo kNeverUsed;

  Status CheckAllocated(Mfn mfn) const;

  // Storage for total_ records, taken once and never moved; records
  // [0, used_) are constructed.
  FrameInfo* frames_ = nullptr;
  std::size_t total_;
  std::size_t used_ = 0;
  // Released frames, reused last-released first before used_ grows.
  std::vector<Mfn> free_list_;
  std::size_t shared_count_ = 0;
  std::size_t saved_by_sharing_ = 0;
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_FRAME_TABLE_H_
