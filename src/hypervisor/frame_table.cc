#include "src/hypervisor/frame_table.h"

#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

namespace nephele {
namespace {

// Record storage is never handed back to the allocator: a destroyed table's
// block waits here for the next table of the same pool size. So no other
// allocation is ever placed in a block's untouched rest (a heap that keeps
// its pages, as perfbench's does, would hand it out, and peak RSS would
// depend on where), a block's footprint is the high-water mark of the
// tables built in it, and a process that rebuilds its hosts finds the
// records' pages already resident instead of faulting them in again.
struct SpareStorage {
  std::mutex mu;
  std::vector<std::pair<std::size_t, void*>> blocks;  // (bytes, address)
};

SpareStorage& Spares() {
  static auto* spares = new SpareStorage;  // never destroyed: tables may outlive statics
  return *spares;
}

void* TakeStorage(std::size_t bytes) {
  SpareStorage& spares = Spares();
  {
    std::lock_guard<std::mutex> lock(spares.mu);
    for (auto it = spares.blocks.rbegin(); it != spares.blocks.rend(); ++it) {
      if (it->first == bytes) {
        void* storage = it->second;
        spares.blocks.erase(std::next(it).base());
        return storage;
      }
    }
  }
  return ::operator new(bytes);
}

// Called from ~FrameTable, so it must not throw: a block the spare list
// cannot take is freed instead.
void ReturnStorage(void* storage, std::size_t bytes) {
  SpareStorage& spares = Spares();
  std::lock_guard<std::mutex> lock(spares.mu);
  try {
    spares.blocks.emplace_back(bytes, storage);
  } catch (const std::bad_alloc&) {
    ::operator delete(storage);
  }
}

}  // namespace

const FrameInfo FrameTable::kNeverUsed{};

FrameTable::FrameTable(std::size_t total_frames) : total_(total_frames) {
  if (total_ != 0) {
    frames_ = static_cast<FrameInfo*>(TakeStorage(total_ * sizeof(FrameInfo)));
  }
}

FrameTable::~FrameTable() {
  std::destroy_n(frames_, used_);
  if (frames_ != nullptr) {
    ReturnStorage(frames_, total_ * sizeof(FrameInfo));
  }
}

Result<Mfn> FrameTable::Alloc(DomId owner) {
  if (free_list_.empty()) {
    // No released frame waiting: the lowest never-used one gets its record,
    // built already owned.
    if (used_ == total_) {
      return ErrResourceExhausted("machine memory pool empty");
    }
    ::new (static_cast<void*>(frames_ + used_)) FrameInfo{owner, false, true, 1, nullptr};
    return static_cast<Mfn>(used_++);
  }
  const Mfn mfn = free_list_.back();
  free_list_.pop_back();
  FrameInfo& f = frames_[mfn];
  f.owner = owner;
  f.refcount = 1;
  f.shared = false;
  f.allocated = true;
  f.data.reset();  // frames are scrubbed: reads are zero until written
  return mfn;
}

Status FrameTable::CheckAllocated(Mfn mfn) const {
  if (mfn >= used_ || !frames_[mfn].allocated) {
    return ErrInvalidArgument("mfn not allocated");
  }
  return Status::Ok();
}

Status FrameTable::Release(Mfn mfn) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  if (f.shared && f.refcount > 1) {
    --f.refcount;
    --saved_by_sharing_;
    return Status::Ok();
  }
  if (f.shared) {
    --shared_count_;
  }
  f = FrameInfo{};
  free_list_.push_back(mfn);
  return Status::Ok();
}

Result<bool> FrameTable::Share(Mfn mfn, std::uint32_t sharers) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  const bool entered = !f.shared;
  if (entered) {
    f.owner = kDomCow;
    f.shared = true;
    ++shared_count_;
  }
  f.refcount += sharers;
  saved_by_sharing_ += sharers;
  return entered;
}

Result<FrameTable::CowResolution> FrameTable::ResolveCowWrite(Mfn mfn, DomId writer) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  if (!f.shared) {
    return ErrFailedPrecondition("COW write on unshared frame");
  }
  if (f.refcount == 1) {
    // Last sharer: hand the frame over in place; no copy needed. The new
    // owner may differ from the original owner (Sec. 5.2).
    f.owner = writer;
    f.shared = false;
    --shared_count_;
    return CowResolution{mfn, /*copied=*/false};
  }
  NEPHELE_ASSIGN_OR_RETURN(Mfn copy, Alloc(writer));
  if (f.data != nullptr) {
    CopyPage(mfn, copy);
  }
  --f.refcount;
  --saved_by_sharing_;
  return CowResolution{copy, /*copied=*/true};
}

void FrameTable::ReadBytes(Mfn mfn, std::size_t offset, std::uint8_t* out,
                           std::size_t len) const {
  const FrameInfo& f = info(mfn);
  if (f.data == nullptr) {
    std::memset(out, 0, len);
    return;
  }
  std::memcpy(out, f.data->data() + offset, len);
}

void FrameTable::WriteBytes(Mfn mfn, std::size_t offset, const std::uint8_t* src,
                            std::size_t len) {
  FrameInfo& f = frames_[mfn];
  if (f.data == nullptr) {
    f.data = std::make_unique<PageData>();
    f.data->fill(0);
  }
  std::memcpy(f.data->data() + offset, src, len);
}

void FrameTable::CopyPage(Mfn src, Mfn dst) {
  FrameInfo& s = frames_[src];
  FrameInfo& d = frames_[dst];
  if (s.data == nullptr) {
    d.data.reset();
    return;
  }
  if (d.data == nullptr) {
    d.data = std::make_unique<PageData>();
  }
  *d.data = *s.data;
}

}  // namespace nephele
