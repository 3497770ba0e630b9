#include "src/kvm/kvm_host.h"

#include "src/base/units.h"

namespace nephele {

namespace {
// FrameTable owners for KVM: one pseudo-domid per VM (offset to keep clear
// of Xen's special ids) — the frame table only needs distinct owners.
DomId OwnerOf(VmId vm) { return static_cast<DomId>(vm % 0x7000); }
}  // namespace

KvmHost::KvmHost(EventLoop& loop, const CostModel& costs, std::size_t pool_frames)
    : loop_(loop), costs_(costs), frames_(pool_frames) {}

Result<VmId> KvmHost::CreateVm(const std::string& name, int vcpus) {
  if (vcpus <= 0) {
    return ErrInvalidArgument("vcpus must be positive");
  }
  VmId id = next_id_++;
  auto vm = std::make_unique<KvmVm>();
  vm->id = id;
  vm->name = name;
  vm->vcpus.resize(static_cast<std::size_t>(vcpus));
  vm->family_root = id;
  vms_[id] = std::move(vm);
  loop_.AdvanceBy(SimDuration::Micros(120));  // KVM_CREATE_VM + vcpu setup
  return id;
}

Status KvmHost::SetUserMemoryRegion(VmId vm, std::size_t pages) {
  KvmVm* v = Find(vm);
  if (v == nullptr) {
    return ErrNotFound("no such vm");
  }
  if (!v->memory.empty()) {
    return ErrFailedPrecondition("memory slot already set");
  }
  v->memory.reserve(pages);
  for (std::size_t i = 0; i < pages; ++i) {
    NEPHELE_ASSIGN_OR_RETURN(Mfn frame, frames_.Alloc(OwnerOf(vm)));
    loop_.AdvanceBy(costs_.frame_alloc);
    v->memory.push_back(KvmPage{frame, /*writable=*/true, /*idc_shared=*/false});
  }
  return Status::Ok();
}

Status KvmHost::Run(VmId vm) {
  KvmVm* v = Find(vm);
  if (v == nullptr) {
    return ErrNotFound("no such vm");
  }
  v->running = true;
  return Status::Ok();
}

Status KvmHost::DestroyVm(VmId vm) {
  auto it = vms_.find(vm);
  if (it == vms_.end()) {
    return ErrNotFound("no such vm");
  }
  for (KvmPage& page : it->second->memory) {
    (void)frames_.Release(page.host_page);
  }
  if (KvmVm* parent = Find(it->second->parent); parent != nullptr) {
    std::erase(parent->children, vm);
    for (VmId c : it->second->children) {
      if (KvmVm* child = Find(c); child != nullptr) {
        child->parent = it->second->parent;
        parent->children.push_back(c);
      }
    }
  } else {
    for (VmId c : it->second->children) {
      if (KvmVm* child = Find(c); child != nullptr) {
        child->parent = kInvalidVm;
      }
    }
  }
  vms_.erase(it);
  return Status::Ok();
}

Result<VmId> KvmHost::CloneVm(VmId vm) {
  KvmVm* parent = Find(vm);
  if (parent == nullptr) {
    return ErrNotFound("no such vm");
  }
  if (parent->max_clones == 0 || parent->clones_made >= parent->max_clones) {
    return ErrPermissionDenied("cloning not enabled / exhausted for this vm");
  }
  // fork() of the VMM process: O(page-table) work, all anon memory COW.
  loop_.AdvanceBy(costs_.proc_fork_fixed);
  loop_.AdvanceBy(SimDuration::Nanos(costs_.proc_fork_pte_copy.ns() *
                                     static_cast<std::int64_t>(parent->memory.size())));

  VmId child_id = next_id_++;
  auto child = std::make_unique<KvmVm>();
  child->id = child_id;
  child->name = parent->name + ".clone" + std::to_string(parent->clones_made + 1);
  child->vcpus = parent->vcpus;
  for (auto& vcpu : child->vcpus) {
    vcpu.rax = 1;  // same guest-visible contract as the Xen CLONEOP
  }
  child->parent = vm;
  child->family_root = parent->family_root;
  child->max_clones = parent->max_clones;

  child->memory.reserve(parent->memory.size());
  for (KvmPage& page : parent->memory) {
    // No private-page classes on KVM: EVERYTHING shares, including what Xen
    // would duplicate (rings, buffers); ivshmem IDC pages stay writable.
    NEPHELE_ASSIGN_OR_RETURN(bool first, frames_.Share(page.host_page, 1));
    loop_.AdvanceBy(first ? costs_.page_share_first : costs_.page_share_again);
    bool writable = page.idc_shared;
    page.writable = writable;
    child->memory.push_back(KvmPage{page.host_page, writable, page.idc_shared});
  }
  parent->children.push_back(child_id);
  ++parent->clones_made;
  for (auto& vcpu : parent->vcpus) {
    vcpu.rax = 0;
  }

  // Parent pauses until the central daemon finishes I/O cloning, exactly as
  // on Xen (Sec. 5); child starts paused.
  parent->running = false;
  child->running = false;
  pending_parent_of_[child_id] = vm;
  VmId parent_id = vm;
  vms_[child_id] = std::move(child);
  if (notifier_) {
    auto notify = notifier_;
    loop_.Post(SimDuration::Micros(50), [notify, parent_id, child_id] {
      notify(parent_id, child_id);
    });
  }
  return child_id;
}

Status KvmHost::CloneComplete(VmId child) {
  auto it = pending_parent_of_.find(child);
  if (it == pending_parent_of_.end()) {
    return ErrNotFound("no pending clone");
  }
  VmId parent = it->second;
  pending_parent_of_.erase(it);
  if (KvmVm* c = Find(child); c != nullptr) {
    c->running = true;
  }
  if (KvmVm* p = Find(parent); p != nullptr) {
    p->running = true;
  }
  return Status::Ok();
}

Status KvmHost::ResolveCow(KvmVm& vm, Gfn gfn) {
  KvmPage& page = vm.memory[gfn];
  if (page.writable) {
    return Status::Ok();
  }
  loop_.AdvanceBy(costs_.proc_cow_fault);
  NEPHELE_ASSIGN_OR_RETURN(auto res, frames_.ResolveCowWrite(page.host_page, OwnerOf(vm.id)));
  if (res.copied) {
    loop_.AdvanceBy(costs_.page_copy + costs_.frame_alloc);
  }
  page.host_page = res.mfn;
  page.writable = true;
  ++vm.cow_faults;
  return Status::Ok();
}

Status KvmHost::WriteGuestPage(VmId vm, Gfn gfn, std::size_t offset, const void* src,
                               std::size_t len) {
  KvmVm* v = Find(vm);
  if (v == nullptr) {
    return ErrNotFound("no such vm");
  }
  if (gfn >= v->memory.size() || offset + len > kPageSize) {
    return ErrOutOfRange("guest write outside page");
  }
  NEPHELE_RETURN_IF_ERROR(ResolveCow(*v, gfn));
  frames_.WriteBytes(v->memory[gfn].host_page, offset, static_cast<const std::uint8_t*>(src),
                     len);
  return Status::Ok();
}

Status KvmHost::ReadGuestPage(VmId vm, Gfn gfn, std::size_t offset, void* out,
                              std::size_t len) const {
  const KvmVm* v = Find(vm);
  if (v == nullptr) {
    return ErrNotFound("no such vm");
  }
  if (gfn >= v->memory.size() || offset + len > kPageSize) {
    return ErrOutOfRange("guest read outside page");
  }
  frames_.ReadBytes(v->memory[gfn].host_page, offset, static_cast<std::uint8_t*>(out), len);
  return Status::Ok();
}

KvmVm* KvmHost::Find(VmId vm) {
  auto it = vms_.find(vm);
  return it == vms_.end() ? nullptr : it->second.get();
}

const KvmVm* KvmHost::Find(VmId vm) const {
  auto it = vms_.find(vm);
  return it == vms_.end() ? nullptr : it->second.get();
}

bool KvmHost::IsDescendantOf(VmId maybe_child, VmId ancestor) const {
  const KvmVm* v = Find(maybe_child);
  while (v != nullptr && v->parent != kInvalidVm) {
    if (v->parent == ancestor) {
      return true;
    }
    v = Find(v->parent);
  }
  return false;
}

bool KvmHost::SameFamily(VmId a, VmId b) const {
  const KvmVm* va = Find(a);
  const KvmVm* vb = Find(b);
  return va != nullptr && vb != nullptr && va->family_root == vb->family_root;
}

// ---------------------------------------------------------------------------
// KvmIdcRegion
// ---------------------------------------------------------------------------

Result<KvmIdcRegion> KvmIdcRegion::Create(KvmHost& host, VmId owner, std::size_t pages) {
  KvmVm* vm = host.Find(owner);
  if (vm == nullptr) {
    return ErrNotFound("no such vm");
  }
  if (pages == 0) {
    return ErrInvalidArgument("empty region");
  }
  // ivshmem BAR carved out of the tail of guest memory: mark the pages.
  if (vm->memory.size() < pages) {
    return ErrFailedPrecondition("vm memory too small");
  }
  Gfn first = static_cast<Gfn>(vm->memory.size() - pages);
  for (std::size_t i = 0; i < pages; ++i) {
    vm->memory[first + i].idc_shared = true;
  }
  return KvmIdcRegion(host, owner, first, pages);
}

Status KvmIdcRegion::CheckAccess(VmId accessor) const {
  if (accessor == owner_ || host_->IsDescendantOf(accessor, owner_)) {
    return Status::Ok();
  }
  return ErrPermissionDenied("not a member of the owning family");
}

Status KvmIdcRegion::Write(VmId accessor, std::size_t offset, const void* src, std::size_t len) {
  NEPHELE_RETURN_IF_ERROR(CheckAccess(accessor));
  if (offset + len > pages_ * kPageSize) {
    return ErrOutOfRange("write outside region");
  }
  const auto* bytes = static_cast<const std::uint8_t*>(src);
  while (len > 0) {
    Gfn gfn = first_gfn_ + static_cast<Gfn>(offset / kPageSize);
    std::size_t in_page = offset % kPageSize;
    std::size_t chunk = std::min(len, kPageSize - in_page);
    NEPHELE_RETURN_IF_ERROR(host_->WriteGuestPage(owner_, gfn, in_page, bytes, chunk));
    bytes += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status KvmIdcRegion::Read(VmId accessor, std::size_t offset, void* out, std::size_t len) const {
  NEPHELE_RETURN_IF_ERROR(CheckAccess(accessor));
  if (offset + len > pages_ * kPageSize) {
    return ErrOutOfRange("read outside region");
  }
  auto* bytes = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    Gfn gfn = first_gfn_ + static_cast<Gfn>(offset / kPageSize);
    std::size_t in_page = offset % kPageSize;
    std::size_t chunk = std::min(len, kPageSize - in_page);
    NEPHELE_RETURN_IF_ERROR(host_->ReadGuestPage(owner_, gfn, in_page, bytes, chunk));
    bytes += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

}  // namespace nephele
