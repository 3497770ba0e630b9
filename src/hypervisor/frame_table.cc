#include "src/hypervisor/frame_table.h"

#include <cstring>

namespace nephele {

FrameTable::FrameTable(std::size_t total_frames) {
  frames_.resize(total_frames);
  free_list_.reserve(total_frames);
  // Hand out low mfns first (reverse free list order).
  for (std::size_t i = total_frames; i > 0; --i) {
    free_list_.push_back(static_cast<Mfn>(i - 1));
  }
  free_count_ = total_frames;
}

Result<Mfn> FrameTable::Alloc(DomId owner) {
  if (free_list_.empty()) {
    return ErrResourceExhausted("machine memory pool empty");
  }
  Mfn mfn = free_list_.back();
  free_list_.pop_back();
  --free_count_;
  FrameInfo& f = frames_[mfn];
  f.owner = owner;
  f.refcount = 1;
  f.shared = false;
  f.allocated = true;
  f.data.reset();  // frames are scrubbed: reads are zero until written
  return mfn;
}

Status FrameTable::CheckAllocated(Mfn mfn) const {
  if (mfn >= frames_.size() || !frames_[mfn].allocated) {
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
  ++free_count_;
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
  const FrameInfo& f = frames_[mfn];
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
