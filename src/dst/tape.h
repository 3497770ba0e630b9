// The hostile-tape vocabulary (hvfuzz): malformed guest-issued operations
// checked against the hypervisor's own invariants.
//
// A tape is a seed plus a list of HvOps — guest-issued operations against a
// live NepheleSystem, with operand *selectors* rather than concrete ids:
// `a`/`b`/`c` index menus of targets (live domain / dead domain / Dom0 /
// kDomChild / out-of-range gfn / stale handle / oversized length ...) that
// the harness resolves against its current state. Selectors keep tapes
// replayable after shrinking: deleting an op never invalidates the ones
// after it, it only changes which menu entry they land on.
//
// Tapes exist in three forms:
//   * bytes   — AFL mutation input; HvVocabulary::FromBytes is a total
//               decoder (any byte string is a valid tape, same bytes => same
//               tape);
//   * structs — what the harness executes and the ddmin shrinker edits;
//   * text    — the corpus format (tests/hvfuzz_corpus/*.tape), a strict
//               line-oriented round-trippable encoding for humans and git.
//
// RunTape executes one on the harness core (src/dst/harness.h), with a 9p
// backend wired in. Its oracle layers, on top of the core's hypervisor
// layers:
//   op-status   no operation may surface StatusCode::kInternal — hostile
//               arguments get typed errors, never invariant breakage;
//   cells       tracked heap cells of every guest read exactly the model's
//               value — COW isolation and clone_reset correctness.
// An op that deliberately skips its post-op Settle (clone flags bit1 — the
// clone-during-clone window) defers the oracle to the next settled op.
// Teardown disarms every fault point and settles before the first destroy.

#ifndef SRC_DST_TAPE_H_
#define SRC_DST_TAPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/dst/harness.h"

namespace nephele {

enum class HvOpKind : std::uint8_t {
  kLaunch = 0,   // boot a fresh root guest via the toolstack
  kClone,        // clone_op: a=parent sel, b=caller sel, n=children,
                 // flags bit0=bogus start_info mfn, bit1=skip settle
  kReset,        // clone_reset: a=target sel, b=caller sel
  kCow,          // clone_cow: a=target sel, c=gfn menu, n=count menu
  kDestroy,      // a=target sel
  kGrant,        // grant_access: a=granter sel, b=grantee menu, c=gfn menu,
                 // flags bit0=readonly
  kMap,          // map_grant: a=mapper sel, c=grant-handle menu
  kUnmap,        // unmap_grant: a=caller sel, c=grant-handle menu
  kEndGrant,     // end_access: c=grant-handle menu
  kEvAlloc,      // evtchn_alloc_unbound: a=owner sel, b=remote menu
  kEvBind,       // evtchn_bind_interdomain: a=binder sel, c=port-handle menu
  kEvSend,       // a=sender sel, c=port-handle menu
  kEvClose,      // a=closer sel, c=port-handle menu
  kXsWrite,      // hostile xenstore write: b=key menu, c=value menu
  kP9,           // 9p request: b=sub-op menu, c=path/fid menu
  kWrite,        // tracked heap-cell write: a=dom sel, c=slot, v=value
  kRawWrite,     // WriteGuestPage: a=dom sel, c=gfn menu, n=offset menu,
                 // v=len menu
  kRead,         // ReadGuestPage, same menus as kRawWrite
  kTouch,        // TouchGuestPages: a=dom sel, c=gfn menu, n=count menu
  kArm,          // arm fault point `point` with NthHit(nth)
  kDisarm,       // disarm all fault points
  kAdvance,      // advance virtual time by `amount` ns (capped)
  kSettle,       // drain the event loop
  kLazyClone,    // clone_op with lazy=true (post-copy): same operands as
                 // kClone; children stay partially mapped until streamed
  kLazyTouch,    // guest touch aimed at a not-present (deferred) page:
                 // a=dom sel, c=fallback gfn menu, n=count menu
  kStream,       // advance post-copy streams: flags bit0 ? FinishStreaming
                 // of a=dom sel : StreamPump(1 + n%4) manual batches
};
inline constexpr std::size_t kNumHvOpKinds = 26;

const char* HvOpKindName(HvOpKind kind);

struct HvOp {
  HvOpKind kind = HvOpKind::kLaunch;
  std::uint32_t a = 0;      // primary target selector
  std::uint32_t b = 0;      // secondary selector (caller / peer / key)
  std::uint32_t c = 0;      // tertiary selector (gfn / handle / value menu)
  std::uint32_t n = 0;      // count / offset selector
  std::uint32_t v = 0;      // value / length selector
  std::uint32_t flags = 0;  // per-kind behaviour bits
  std::uint64_t amount = 0; // time advance (ns)
  std::uint64_t nth = 1;    // kArm: NthHit trigger
  std::string point;        // kArm: fault point name

  bool operator==(const HvOp& o) const = default;
};

struct HvTape {
  std::uint64_t seed = 1;
  std::vector<HvOp> ops;

  bool operator==(const HvTape& o) const = default;
};

// Corpus text format:
//   # nephele hvfuzz tape v1
//   seed <n>
//   <op-name> [a=<n>] [b=<n>] [c=<n>] [n=<n>] [v=<n>] [flags=<n>]
//             [amount=<n>] [nth=<n>] [point=<name>]
// Zero-valued fields (nth: 1) are omitted on write and defaulted on parse.
std::string TapeToText(const HvTape& tape);
Result<HvTape> ParseTape(const std::string& text);

RunResult RunTape(const HvTape& tape, const RunOptions& options = {});

// The hostile-tape vocabulary as the shared Fuzzer and Shrink see it.
struct HvVocabulary {
  using Op = HvOp;
  using Input = HvTape;
  // Names the harness guest and the vocabulary in digest dumps.
  static constexpr const char* kName = "hvfuzz";

  // Total decoder: bytes drive the choices first, then a deterministic
  // fallback stream derived from everything consumed so far.
  static HvTape FromBytes(std::uint64_t seed, const std::vector<std::uint8_t>& bytes);
  static RunResult Run(const HvTape& tape, const RunOptions& options) {
    return RunTape(tape, options);
  }
  // Operand reductions the shrinker tries per op: selectors toward 0 (the
  // least hostile menu entry), structural knobs toward their minimum.
  static std::vector<HvOp> SimplerVariants(const HvOp& op);
};

}  // namespace nephele

#endif  // SRC_DST_TAPE_H_
