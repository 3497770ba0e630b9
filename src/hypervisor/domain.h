// struct Domain: the hypervisor-side state of one guest (Xen's struct domain
// analogue). Plain aggregate by design — the Hypervisor object (and the clone
// engine in src/core) manage its invariants, mirroring how Xen code treats
// struct domain.

#ifndef SRC_HYPERVISOR_DOMAIN_H_
#define SRC_HYPERVISOR_DOMAIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/hypervisor/event_channel.h"
#include "src/hypervisor/grant_table.h"
#include "src/hypervisor/types.h"

namespace nephele {

// User-register file of one virtual CPU. Only the registers the cloning
// protocol cares about are modelled individually; rax carries the CLONEOP
// return value (0 in the parent, 1 in any child — Sec. 5.2).
struct VcpuState {
  std::uint64_t rax = 0;
  std::uint64_t rbx = 0;
  std::uint64_t rcx = 0;
  std::uint64_t rdx = 0;
  std::uint64_t rsi = 0;
  std::uint64_t rdi = 0;
  std::uint64_t rsp = 0;
  std::uint64_t rip = 0;
  // CPU pinning; replicated on clone (Sec. 5.2 "the CPU affinity ... are
  // replicated").
  int affinity = -1;
  bool online = true;
};

enum class DomainState : std::uint8_t {
  kCreated = 0,  // allocated, not yet unpaused
  kRunning,
  kPaused,
  kDying,
};

// One entry of the physical-to-machine map.
struct P2mEntry {
  Mfn mfn = kInvalidMfn;
  PageRole role = PageRole::kData;
  // Cleared when the backing frame enters COW sharing; a write then faults.
  bool writable = true;
};

struct Domain {
  DomId id = kDomInvalid;
  std::string name;
  DomainState state = DomainState::kCreated;

  std::vector<VcpuState> vcpus;

  // Guest pseudo-physical address space. Index = gfn.
  std::vector<P2mEntry> p2m;
  // Machine frames holding this domain's page tables (direct-paging: they
  // contain machine addresses, hence always private — Sec. 4.1).
  std::vector<Mfn> page_table_frames;
  // Frames holding the p2m itself (private: rewritten on clone/migration).
  std::vector<Mfn> p2m_frames;

  // Well-known special pages (private on clone; Sec. 5.2 "console page, the
  // Xenstore interface page, the start_info page").
  Gfn start_info_gfn = kInvalidGfn;
  Gfn console_ring_gfn = kInvalidGfn;
  Gfn xenstore_ring_gfn = kInvalidGfn;

  GrantTable grants;
  EvtchnTable evtchns;
  // Mapper-side record of grant mappings this domain holds into other
  // domains' tables, one (granter, ref) pair per mapping. The granter-side
  // GrantTable::mappers(ref) list is the mirror; Hypervisor::MapGrant/UnmapGrant
  // keep the two in lock step and DestroyDomain force-revokes both ways.
  std::vector<std::pair<DomId, GrantRef>> grant_maps;

  // --- Cloning configuration (toolstack-controlled; Sec. 5.1 domctl). ---
  bool cloning_enabled = false;
  std::uint32_t max_clones = 0;
  std::uint32_t clones_created = 0;

  // --- Family bookkeeping (Sec. 4: common-ancestor relation). ---
  DomId parent = kDomInvalid;
  DomId family_root = kDomInvalid;  // == id for a booted domain
  std::vector<DomId> children;

  // True while the parent is blocked in CLONEOP waiting for second-stage
  // completion (Sec. 5: "The parent domain is paused until the completion of
  // second stage").
  bool blocked_in_clone = false;

  // Dirty-page tracking for clone_reset (KFX fuzzing, Sec. 7.2): gfns whose
  // frames diverged from the shared post-clone state.
  bool track_dirty = false;
  std::vector<Gfn> dirty_since_clone;

  // --- Lazy-clone deferred ledger (post-copy cloning). ---
  // Number of p2m entries deliberately left not-present (mfn == kInvalidMfn)
  // by a lazy stage 1 and not yet streamed or demand-faulted in. The
  // invariant oracle requires the not-present entry count of every live
  // domain to equal this ledger exactly: a stray kInvalidMfn outside an
  // active lazy stream is a bug, not a tolerated hole.
  std::size_t lazy_deferred_pages = 0;

  // Statistics.
  std::uint64_t cow_faults = 0;
  std::uint64_t cow_pages_copied = 0;

  std::size_t tot_pages() const { return p2m.size(); }
  bool IsPaused() const { return state == DomainState::kPaused || state == DomainState::kCreated; }
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_DOMAIN_H_
