// Per-domain grant table: the Xen primitive for sharing memory across
// domains. Nephele extends the interface with the DOMID_CHILD wildcard
// (Sec. 5.1): grants made to kDomChild are valid for every future clone of
// the granting domain.
//
// Storage follows use. max_entries() is the admission cap (first-fit from
// ref 0; a full table returns kResourceExhausted), but the entry vector only
// holds refs up to the high-water mark, used_limit(), and grows by one slot
// when first-fit finds no free slot inside it. Refs at or past used_limit()
// read as unused entries, and every sweep stops there. Who holds a mapping
// lives beside the entries, in one ref-ordered map that only has mapped
// refs: almost no entry is ever mapped, so keeping the list per entry would
// cost every cloned domain a vector header per grant.

#ifndef SRC_HYPERVISOR_GRANT_TABLE_H_
#define SRC_HYPERVISOR_GRANT_TABLE_H_

#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "src/base/result.h"
#include "src/hypervisor/types.h"

namespace nephele {

struct GrantEntry {
  bool in_use = false;
  bool readonly = false;
  // Domain allowed to map the granted page; may be kDomChild.
  DomId grantee = kDomInvalid;
  // The granting domain's frame being shared.
  Gfn gfn = kInvalidGfn;
  // Count of active mappings; the entry cannot be revoked while nonzero.
  std::uint32_t map_count = 0;
};
// Cloning copies the used range of a table as one block.
static_assert(std::is_trivially_copyable_v<GrantEntry> && sizeof(GrantEntry) == 12);

// Grant references a domain's table may hold.
inline constexpr std::size_t kGrantEntriesPerDomain = 1024;

class GrantTable {
 public:
  explicit GrantTable(std::size_t max_entries = kGrantEntriesPerDomain)
      : max_entries_(max_entries) {}

  std::size_t max_entries() const { return max_entries_; }
  // One past the highest ref ever granted (monotone): the stored range.
  std::size_t used_limit() const { return entries_.size(); }
  std::size_t active_entries() const { return active_; }

  // Grants `grantee` access to `gfn`. Returns the grant reference.
  Result<GrantRef> GrantAccess(DomId grantee, Gfn gfn, bool readonly);

  // Revokes a grant. Fails while mappings are outstanding.
  Status EndAccess(GrantRef ref);

  // Checks that `mapper` may map `ref`; increments the map count.
  // `mapper_is_child_of_granter` tells whether `mapper` is a clone of the
  // granting domain, which validates kDomChild wildcard entries.
  Result<Gfn> Map(GrantRef ref, DomId mapper, bool mapper_is_child_of_granter);

  // Drops one of `mapper`'s mappings of `ref`. A caller holding no mapping
  // cannot decrement someone else's: kFailedPrecondition when the entry is
  // unmapped, kPermissionDenied when it is mapped but not by `mapper`.
  Status Unmap(GrantRef ref, DomId mapper);

  // Past used_limit() this reads as an unused entry.
  const GrantEntry& entry(GrantRef ref) const {
    return ref < entries_.size() ? entries_[ref] : kUnused;
  }

  // Who holds the mappings of `ref`, one element per mapping (a domain
  // mapping the same ref twice appears twice); always map_count elements.
  // Kept so unmap can reject foreign callers and domain destruction can
  // revoke exactly the dying domain's mappings.
  const std::vector<DomId>& mappers(GrantRef ref) const;

  // Domain destruction: hands over every mapping in ref order and zeroes
  // the map counts, leaving the grants themselves in place.
  std::map<GrantRef, std::vector<DomId>> TakeMappings();

  // Copy used by the clone first stage: the child inherits all entries.
  // Wildcard (kDomChild) entries stay wildcards in the child so that
  // grandchildren work; map counts reset.
  GrantTable CloneForChild() const;

 private:
  static constexpr GrantEntry kUnused{};

  std::size_t max_entries_;
  std::vector<GrantEntry> entries_;
  std::map<GrantRef, std::vector<DomId>> mappers_;
  std::size_t active_ = 0;
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_GRANT_TABLE_H_
