// The scenario vocabulary: deterministic simulation testing (DST) of
// well-formed op streams against a reference model.
//
// A Scenario is a seeded, typed op sequence — the complete input of one
// simulation run. Ops never name concrete DomIds: they address domains by
// creation-order index (modulo the live count at execution time), so a
// scenario stays meaningful while the shrinker deletes ops in front of it.
// The text encoding (one op per line, `key=value` operands) is what the
// corpus under tests/dst_corpus/ stores and what a failure report prints, so
// any oracle violation is replayable from a dozen lines of text.
//
// RunScenario executes one on the harness core (src/dst/harness.h), with a
// CloneScheduler wired in and the ReferenceModel updated in lock step. Its
// oracle layers, after the core's hypervisor layers:
//
//   live-set    hypervisor domain table == model domain set
//   topology    parent edges, clone accounting, pause state, p2m geometry,
//               per-page pte writability vs the model's COW mirror
//   cells       every tracked heap cell of every live domain reads exactly
//               the byte the model predicts (COW isolation)
//   xenstore    the /data mirror each domain carries (inherited on clone,
//               dropped on destroy) matches, via side-effect-free peeks
//   counters    expected deltas of the clone/reset/destroy counter set
//   op-status   an op the model says must succeed (or fail) did not
//
// Decision tapes decode to scenarios through a weighted-op random walk
// (DstVocabulary::FromBytes); the shared Fuzzer and Shrink drive it.

#ifndef SRC_DST_SCENARIO_H_
#define SRC_DST_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/dst/harness.h"
#include "src/fault/fault.h"

namespace nephele {

enum class OpKind : std::uint8_t {
  kLaunchGuest = 0,  // xl create of a fresh root guest
  kCloneBatch,       // CLONEOP kClone: `n` children of domain `dom`
  kCowWrite,         // guest write to one tracked heap cell
  kCloneReset,       // CLONEOP kCloneReset of domain `dom`
  kDestroy,          // xl destroy of domain `dom`
  kMigrateOut,       // stop-and-copy emigration into stream slot
  kMigrateIn,        // immigration of stored stream `slot`
  kArmFault,         // arm a named fault point
  kDisarmFaults,     // disarm every fault point
  kDeviceIo,         // device control-plane I/O (xenstore data write)
  kAdvanceTime,      // advance virtual time by `amount` ns
  kSchedAcquire,     // CloneScheduler::Acquire: `n` children of domain `dom`
  kSchedRelease,     // CloneScheduler::Release of granted child `slot`
  kCloneLazy,        // CLONEOP kClone with lazy=true: post-copy children of
                     // `dom`; `slot` picks the tracked page hinted hot
  kTouchUnmapped,    // guest write aimed at a not-present (deferred) page of
                     // domain `dom` — the demand-fault path; falls back to
                     // the tracked cell `slot` when nothing is deferred
};

// The canonical op names of the text encoding, in OpKind order.
const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kLaunchGuest;
  // Domain index into the harness's creation-ordered live list (mod size).
  std::uint32_t dom = 0;
  // kCloneBatch: children per batch.
  std::uint32_t n = 1;
  // kCloneBatch: staging worker threads to configure first (0 = keep).
  std::uint32_t workers = 0;
  // kCowWrite: tracked cell index; kDeviceIo: data key; kMigrateIn: stream.
  std::uint32_t slot = 0;
  // kCowWrite: byte value; kDeviceIo: value tag.
  std::uint32_t value = 0;
  // kAdvanceTime: nanoseconds.
  std::uint64_t amount = 0;
  // kArmFault operands.
  std::string point;
  FaultSpec spec;

  bool operator==(const Op& other) const;
};

struct Scenario {
  // Provenance only: the generator seed this scenario was derived from.
  // Execution is deterministic regardless.
  std::uint64_t seed = 0;
  // Hypervisor pool size for the run.
  std::size_t pool_frames = 64 * 1024;
  std::vector<Op> ops;

  bool operator==(const Scenario& other) const {
    return seed == other.seed && pool_frames == other.pool_frames && ops == other.ops;
  }

  std::string ToText() const;
  // Strict parser: unknown op names, unknown keys or malformed values fail
  // loudly so corpus rot is caught, not silently skipped.
  static Result<Scenario> FromText(const std::string& text);
};

RunResult RunScenario(const Scenario& scenario, const RunOptions& options = {});

// The scenario vocabulary as the shared Fuzzer and Shrink see it.
struct DstVocabulary {
  using Op = nephele::Op;
  using Input = Scenario;
  // Names the harness guest and the vocabulary in digest dumps.
  static constexpr const char* kName = "dst";

  // Pure tape decoder: the tape drives a weighted-op random walk.
  static Scenario FromBytes(std::uint64_t seed, const std::vector<std::uint8_t>& bytes);
  static RunResult Run(const Scenario& scenario, const RunOptions& options) {
    return RunScenario(scenario, options);
  }
  // Operand reductions the shrinker tries per op (batch size to 1, worker
  // override off, values to 1, lazy clone to eager, ...).
  static std::vector<Op> SimplerVariants(const Op& op);
};

}  // namespace nephele

#endif  // SRC_DST_SCENARIO_H_
