// Virtual block device (vbd) split driver — an exercise of the paper's
// Sec. 5.3 extension point: "Supporting new device types requires changes
// only in the implementations of xencloned and of their backend drivers."
//
// The backend stores disks as tables of reference-counted blocks in a
// BlockStore, so cloning a disk is the storage twin of memory cloning: the
// child's table references the parent's blocks, writes on either side break
// the sharing block-by-block (COW), and density scales with divergence
// rather than disk size.

#ifndef SRC_DEVICES_VBD_H_
#define SRC_DEVICES_VBD_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/result.h"
#include "src/devices/ring.h"
#include "src/devices/xenbus.h"
#include "src/fault/fault.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"

namespace nephele {

using BlockId = std::uint32_t;
inline constexpr BlockId kInvalidBlock = 0xffffffffu;
inline constexpr std::size_t kVbdBlockSize = 4096;

// Reference-counted content store backing every disk (the storage analogue
// of the machine frame table).
class BlockStore {
 public:
  // Allocates an all-zero block with refcount 1. Contents materialise
  // lazily on first write.
  BlockId AllocZero();

  void Ref(BlockId id);
  void Unref(BlockId id);

  // Write path with COW: returns the block to write to — `id` itself when
  // refcount == 1, otherwise a fresh copy (the caller re-points its table).
  BlockId ResolveCowWrite(BlockId id);

  void WriteBytes(BlockId id, std::size_t offset, const std::uint8_t* src, std::size_t len);
  void ReadBytes(BlockId id, std::size_t offset, std::uint8_t* out, std::size_t len) const;

  std::uint32_t RefCount(BlockId id) const;
  std::size_t live_blocks() const { return blocks_.size(); }
  // Bytes the store would occupy on the host (deduplicated).
  std::size_t MaterialisedBytes() const;

 private:
  struct Block {
    std::uint32_t refcount = 0;
    std::vector<std::uint8_t> data;  // empty until written (all zeroes)
  };

  std::map<BlockId, Block> blocks_;
  BlockId next_id_ = 1;
};

// One guest-visible virtual disk.
struct VbdDisk {
  std::vector<BlockId> table;  // block index -> store block
  XenbusState state = XenbusState::kInitialising;

  std::size_t size_bytes() const { return table.size() * kVbdBlockSize; }
};

class VbdBackend {
 public:
  // `clone_fault` is poked at the top of CloneDisk.
  VbdBackend(EventLoop& loop, const CostModel& costs, FaultPoint& clone_fault)
      : loop_(loop), costs_(costs), f_clone_(clone_fault) {}

  // Boot path: creates a zero-filled disk of `size_mb` and connects it.
  Status CreateDisk(const DeviceId& id, std::size_t size_mb);

  // Clone path (xencloned): the child disk snapshots the parent's — block
  // table copied, every block reference-counted; both sides COW from here.
  Status CloneDisk(const DeviceId& parent, const DeviceId& child);

  Status DestroyDisk(const DeviceId& id);

  // Datapath (frontend requests).
  Status Read(const DeviceId& id, std::size_t offset, std::uint8_t* out, std::size_t len);
  Status Write(const DeviceId& id, std::size_t offset, const std::uint8_t* src, std::size_t len);

  Result<std::size_t> DiskSize(const DeviceId& id) const;
  bool HasDisk(const DeviceId& id) const { return disks_.contains(id); }
  // Blocks privately owned by this disk (refcount-1 share accounting).
  std::size_t PrivateBlocks(const DeviceId& id) const;

  BlockStore& store() { return store_; }
  static constexpr std::size_t kDom0BytesPerDisk = 48 * 1024;
  std::size_t Dom0Bytes() const { return disks_.size() * kDom0BytesPerDisk; }

 private:
  Result<VbdDisk*> FindDisk(const DeviceId& id);

  EventLoop& loop_;
  const CostModel& costs_;
  BlockStore store_;
  FaultPoint& f_clone_;
  std::map<DeviceId, VbdDisk> disks_;
};

// Guest-side blkfront: byte-addressed convenience API over the backend, with
// a request ring for realism (pending requests survive cloning like vif's).
class VbdFrontend {
 public:
  VbdFrontend(VbdBackend& backend, DeviceId id) : backend_(&backend), id_(id) {}

  Result<std::vector<std::uint8_t>> Read(std::size_t offset, std::size_t len);
  Status Write(std::size_t offset, const std::vector<std::uint8_t>& data);
  Result<std::size_t> Size() const { return backend_->DiskSize(id_); }

  const DeviceId& device() const { return id_; }

 private:
  VbdBackend* backend_;
  DeviceId id_;
};

}  // namespace nephele

#endif  // SRC_DEVICES_VBD_H_
