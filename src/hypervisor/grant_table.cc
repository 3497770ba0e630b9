#include "src/hypervisor/grant_table.h"

#include <algorithm>
#include <utility>

namespace nephele {

Result<GrantRef> GrantTable::GrantAccess(DomId grantee, Gfn gfn, bool readonly) {
  const GrantEntry granted{/*in_use=*/true, readonly, grantee, gfn, /*map_count=*/0};
  // First fit: a hole inside the used range exists only if some ref ended.
  if (active_ < entries_.size()) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].in_use) {
        entries_[i] = granted;
        ++active_;
        return static_cast<GrantRef>(i);
      }
    }
  }
  if (entries_.size() >= max_entries_) {
    return ErrResourceExhausted("grant table full");
  }
  entries_.push_back(granted);
  ++active_;
  return static_cast<GrantRef>(entries_.size() - 1);
}

Status GrantTable::EndAccess(GrantRef ref) {
  if (!entry(ref).in_use) {
    return ErrNotFound("grant ref not in use");
  }
  if (entries_[ref].map_count != 0) {
    return ErrFailedPrecondition("grant still mapped");
  }
  entries_[ref] = GrantEntry{};
  --active_;
  return Status::Ok();
}

Result<Gfn> GrantTable::Map(GrantRef ref, DomId mapper, bool mapper_is_child_of_granter) {
  if (!entry(ref).in_use) {
    return ErrNotFound("grant ref not in use");
  }
  GrantEntry& e = entries_[ref];
  bool allowed = (e.grantee == mapper) ||
                 (e.grantee == kDomChild && mapper_is_child_of_granter);
  if (!allowed) {
    return ErrPermissionDenied("domain not granted access");
  }
  ++e.map_count;
  mappers_[ref].push_back(mapper);
  return e.gfn;
}

Status GrantTable::Unmap(GrantRef ref, DomId mapper) {
  if (!entry(ref).in_use) {
    return ErrNotFound("grant ref not in use");
  }
  GrantEntry& e = entries_[ref];
  if (e.map_count == 0) {
    return ErrFailedPrecondition("grant not mapped");
  }
  auto holders = mappers_.find(ref);  // present while map_count > 0
  auto it = std::find(holders->second.begin(), holders->second.end(), mapper);
  if (it == holders->second.end()) {
    return ErrPermissionDenied("mapping not held by caller");
  }
  holders->second.erase(it);
  if (holders->second.empty()) {
    mappers_.erase(holders);
  }
  --e.map_count;
  return Status::Ok();
}

const std::vector<DomId>& GrantTable::mappers(GrantRef ref) const {
  static const std::vector<DomId> kNone;
  auto it = mappers_.find(ref);
  return it == mappers_.end() ? kNone : it->second;
}

std::map<GrantRef, std::vector<DomId>> GrantTable::TakeMappings() {
  for (const auto& [ref, holders] : mappers_) {
    entries_[ref].map_count = 0;
  }
  return std::exchange(mappers_, {});
}

GrantTable GrantTable::CloneForChild() const {
  GrantTable child(max_entries_);
  child.entries_ = entries_;
  for (GrantEntry& e : child.entries_) {
    e.map_count = 0;
  }
  child.active_ = active_;
  return child;
}

}  // namespace nephele
