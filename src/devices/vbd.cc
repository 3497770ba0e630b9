#include "src/devices/vbd.h"

#include <cassert>
#include <cstring>

#include "src/base/units.h"

namespace nephele {

// ---------------------------------------------------------------------------
// BlockStore
// ---------------------------------------------------------------------------

BlockId BlockStore::AllocZero() {
  BlockId id = next_id_++;
  blocks_[id] = Block{1, {}};
  return id;
}

void BlockStore::Ref(BlockId id) {
  auto it = blocks_.find(id);
  assert(it != blocks_.end());
  ++it->second.refcount;
}

void BlockStore::Unref(BlockId id) {
  auto it = blocks_.find(id);
  assert(it != blocks_.end());
  if (--it->second.refcount == 0) {
    blocks_.erase(it);
  }
}

BlockId BlockStore::ResolveCowWrite(BlockId id) {
  auto it = blocks_.find(id);
  assert(it != blocks_.end());
  if (it->second.refcount == 1) {
    return id;  // sole owner writes in place
  }
  BlockId copy = AllocZero();
  blocks_[copy].data = it->second.data;
  --it->second.refcount;
  return copy;
}

void BlockStore::WriteBytes(BlockId id, std::size_t offset, const std::uint8_t* src,
                            std::size_t len) {
  Block& b = blocks_[id];
  if (b.data.empty()) {
    b.data.resize(kVbdBlockSize, 0);
  }
  std::memcpy(b.data.data() + offset, src, len);
}

void BlockStore::ReadBytes(BlockId id, std::size_t offset, std::uint8_t* out,
                           std::size_t len) const {
  auto it = blocks_.find(id);
  if (it == blocks_.end() || it->second.data.empty()) {
    std::memset(out, 0, len);
    return;
  }
  std::memcpy(out, it->second.data.data() + offset, len);
}

std::uint32_t BlockStore::RefCount(BlockId id) const {
  auto it = blocks_.find(id);
  return it == blocks_.end() ? 0 : it->second.refcount;
}

std::size_t BlockStore::MaterialisedBytes() const {
  std::size_t n = 0;
  for (const auto& [id, b] : blocks_) {
    n += b.data.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// VbdBackend
// ---------------------------------------------------------------------------

Result<VbdDisk*> VbdBackend::FindDisk(const DeviceId& id) {
  auto it = disks_.find(id);
  if (it == disks_.end()) {
    return ErrNotFound("no such disk");
  }
  return &it->second;
}

Status VbdBackend::CreateDisk(const DeviceId& id, std::size_t size_mb) {
  if (disks_.contains(id)) {
    return ErrAlreadyExists("disk exists");
  }
  VbdDisk disk;
  std::size_t blocks = size_mb * kMiB / kVbdBlockSize;
  disk.table.reserve(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    disk.table.push_back(store_.AllocZero());
  }
  disk.state = XenbusState::kConnected;
  loop_.AdvanceBy(SimDuration::Millis(2));  // backend probe + image open
  disks_[id] = std::move(disk);
  return Status::Ok();
}

Status VbdBackend::CloneDisk(const DeviceId& parent, const DeviceId& child) {
  NEPHELE_RETURN_IF_ERROR(f_clone_.Poke());
  NEPHELE_ASSIGN_OR_RETURN(VbdDisk * p, FindDisk(parent));
  if (disks_.contains(child)) {
    return ErrAlreadyExists("child disk exists");
  }
  VbdDisk c;
  c.table = p->table;
  for (BlockId b : c.table) {
    store_.Ref(b);
  }
  c.state = XenbusState::kConnected;  // negotiation skipped, like the vif path
  loop_.AdvanceBy(costs_.vbd_clone_fixed +
                  costs_.vbd_block_ref * static_cast<double>(c.table.size()));
  disks_[child] = std::move(c);
  return Status::Ok();
}

Status VbdBackend::DestroyDisk(const DeviceId& id) {
  NEPHELE_ASSIGN_OR_RETURN(VbdDisk * d, FindDisk(id));
  for (BlockId b : d->table) {
    store_.Unref(b);
  }
  disks_.erase(id);
  return Status::Ok();
}

Status VbdBackend::Read(const DeviceId& id, std::size_t offset, std::uint8_t* out,
                        std::size_t len) {
  NEPHELE_ASSIGN_OR_RETURN(VbdDisk * d, FindDisk(id));
  if (offset + len > d->size_bytes()) {
    return ErrOutOfRange("read past end of disk");
  }
  loop_.AdvanceBy(costs_.vbd_request + costs_.VbdTransferCost(len));
  while (len > 0) {
    std::size_t block = offset / kVbdBlockSize;
    std::size_t in_block = offset % kVbdBlockSize;
    std::size_t chunk = std::min(len, kVbdBlockSize - in_block);
    store_.ReadBytes(d->table[block], in_block, out, chunk);
    out += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status VbdBackend::Write(const DeviceId& id, std::size_t offset, const std::uint8_t* src,
                         std::size_t len) {
  NEPHELE_ASSIGN_OR_RETURN(VbdDisk * d, FindDisk(id));
  if (offset + len > d->size_bytes()) {
    return ErrOutOfRange("write past end of disk");
  }
  loop_.AdvanceBy(costs_.vbd_request + costs_.VbdTransferCost(len));
  while (len > 0) {
    std::size_t block = offset / kVbdBlockSize;
    std::size_t in_block = offset % kVbdBlockSize;
    std::size_t chunk = std::min(len, kVbdBlockSize - in_block);
    BlockId target = store_.ResolveCowWrite(d->table[block]);
    if (target != d->table[block]) {
      loop_.AdvanceBy(costs_.vbd_block_cow);
      d->table[block] = target;
    }
    store_.WriteBytes(target, in_block, src, chunk);
    src += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Result<std::size_t> VbdBackend::DiskSize(const DeviceId& id) const {
  auto it = disks_.find(id);
  if (it == disks_.end()) {
    return ErrNotFound("no such disk");
  }
  return it->second.size_bytes();
}

std::size_t VbdBackend::PrivateBlocks(const DeviceId& id) const {
  auto it = disks_.find(id);
  if (it == disks_.end()) {
    return 0;
  }
  std::size_t n = 0;
  for (BlockId b : it->second.table) {
    if (store_.RefCount(b) == 1) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// VbdFrontend
// ---------------------------------------------------------------------------

Result<std::vector<std::uint8_t>> VbdFrontend::Read(std::size_t offset, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  NEPHELE_RETURN_IF_ERROR(backend_->Read(id_, offset, out.data(), len));
  return out;
}

Status VbdFrontend::Write(std::size_t offset, const std::vector<std::uint8_t>& data) {
  return backend_->Write(id_, offset, data.data(), data.size());
}

}  // namespace nephele
