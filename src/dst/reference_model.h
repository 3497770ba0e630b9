// The DST oracle's reference model: a trivially-correct mirror of what the
// full NepheleSystem is supposed to do, updated in lock step with each
// executed op.
//
// The model is deliberately dumb — plain maps and arrays, no sharing, no
// frames, no COW machinery. Per domain it keeps:
//   * the byte value of every tracked heap cell (kCells cells spread over
//     kTrackedPages pages), the COW-isolation ground truth;
//   * a per-page writable bit mirroring the pte state the COW protocol
//     maintains (shared after clone/reset => read-only, first write flips it
//     back), which also reproduces the kernel's dirty-list append rule;
//   * the dirty-page list a clone accumulates, predicting CloneReset's
//     restored-page count bit-exactly (duplicates included);
//   * the family edge (parent), replicating destroy-time re-parenting;
//   * the xenstore mirror of the domain's /data subtree, which xs_clone
//     copies to children and destroy removes.
//
// Everything is value-typed and deterministic, so model state is a pure
// function of the applied op sequence.

#ifndef SRC_DST_REFERENCE_MODEL_H_
#define SRC_DST_REFERENCE_MODEL_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hypervisor/types.h"

namespace nephele {

class ReferenceModel {
 public:
  // Tracked heap cells: kSlotsPerPage cells per page, 64 bytes apart.
  static constexpr std::size_t kCells = 24;
  static constexpr std::size_t kSlotsPerPage = 4;
  static constexpr std::size_t kTrackedPages = kCells / kSlotsPerPage;

  struct DomainModel {
    DomId parent = kDomInvalid;
    bool is_clone = false;  // mirrors Domain::track_dirty
    std::uint32_t clones_created = 0;
    std::array<std::uint8_t, kCells> cells{};
    std::array<bool, kTrackedPages> writable{};
    // Tracked pages dirtied since clone/reset, in append order. Mirrors the
    // hypervisor's dirty_since_clone restricted to the tracked range —
    // including the duplicate a re-shared-then-rewritten page produces.
    std::vector<std::uint8_t> dirty;
    // Mirror of /local/domain/<id>/data/dst/<key>.
    std::map<std::uint32_t, std::string> xs_data;
  };

  struct StreamModel {
    std::array<std::uint8_t, kCells> cells{};
  };

  // --- Transitions (the harness calls these only for ops the system accepted). ---
  void Launch(DomId dom);
  // First-stage success of a whole batch: parent-side pte flips and clone
  // accounting. Applies even when children later abort in stage 2.
  void CloneBatchPlanned(DomId parent, std::uint32_t n);
  // One successfully second-staged child; aborted children are never added.
  void CloneChild(DomId parent, DomId child);
  void Write(DomId dom, std::uint32_t slot, std::uint8_t value);
  // Returns the predicted restored-page count.
  std::size_t Reset(DomId dom);
  void Destroy(DomId dom);
  // Returns the stream slot the domain was saved into.
  std::size_t MigrateOut(DomId dom);
  void MigrateIn(std::size_t stream, DomId new_dom);
  void DeviceIo(DomId dom, std::uint32_t key, std::string value);

  // --- Predictions the harness checks before trusting a system status. ---
  bool CanReset(DomId dom) const;
  bool CanMigrateOut(DomId dom) const;
  // Clone admission control (cloning enabled + max_clones headroom).
  bool CloneWouldValidate(DomId parent, std::uint32_t max_clones, std::uint32_t n) const;

  const std::map<DomId, DomainModel>& domains() const { return domains_; }
  const DomainModel* Find(DomId dom) const;
  const StreamModel& stream(std::size_t i) const { return streams_[i]; }

  static std::size_t SlotPage(std::uint32_t slot) { return slot % kCells / kSlotsPerPage; }
  static std::size_t SlotOffset(std::uint32_t slot) { return slot % kCells % kSlotsPerPage * 64; }

 private:
  DomainModel& At(DomId dom);

  std::map<DomId, DomainModel> domains_;
  std::vector<StreamModel> streams_;
};

}  // namespace nephele

#endif  // SRC_DST_REFERENCE_MODEL_H_
