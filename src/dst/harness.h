// One simulation-test harness with two op vocabularies.
//
// The core (class Harness) owns everything a run needs whatever its ops
// mean: it builds and settles a fresh standalone Host, keeps the
// creation-ordered live list and the dead list, hashes coverage edges, runs
// the hypervisor invariant layers (src/hypervisor/invariants.h) after every
// settled op, tears every domain down in reverse creation order with exact
// frame conservation, and writes the run digest. Around it sit the pieces
// both vocabularies share: the decision-tape reader, the AFL fuzz loop and
// the ddmin wrapper.
//
// A vocabulary supplies only data and hooks: its op type and text codec,
// its system knobs and extra services, op execution, its own oracle layers
// and its teardown rule. There are two:
//   * scenarios (src/dst/scenario.h) — well-formed ops checked against a
//     reference model (deterministic simulation testing, DST);
//   * hostile tapes (src/dst/tape.h) — malformed guest-issued ops checked
//     against the hypervisor's own invariants (hvfuzz).
//
// A run is deterministic: the same input yields a byte-identical digest at
// any clone worker-thread count, which both suites assert.

#ifndef SRC_DST_HARNESS_H_
#define SRC_DST_HARNESS_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/base/result.h"
#include "src/dst/ddmin.h"
#include "src/fault/fault.h"
#include "src/fuzz/afl.h"
#include "src/hypervisor/types.h"
#include "src/sim/rng.h"
#include "src/toolstack/domain_config.h"

namespace nephele {

class Host;
struct SystemConfig;

struct RunOptions {
  // Non-zero: stage every clone batch with this many worker threads (and
  // ignore a scenario's per-op `workers`). The suites replay inputs at 1
  // and 4 and compare digests.
  unsigned force_workers = 0;
  // Test-only hook, invoked after each op executes and before the oracle,
  // with the op's text-encoding name. Lets tests seed a deliberate bug
  // behind the model's back to prove the oracle catches it and the
  // shrinker minimises it.
  std::function<void(Host&, std::string_view op_name, std::size_t op_index)> after_op;
};

struct RunResult {
  // Empty when the run passed; otherwise the failing oracle layer: the
  // core's "frames", "p2m", "grants", "evtchns" or "teardown", or one of
  // the vocabulary's own layers (see scenario.h and tape.h).
  std::string fail_kind;
  std::size_t fail_op = static_cast<std::size_t>(-1);
  std::string message;

  // Deterministic fingerprint: per-op outcome log plus hashes of the final
  // metrics JSON, trace JSON and the final virtual time.
  std::string digest;
  // Coverage edges for the AFL feedback loop.
  std::vector<std::uint32_t> edges;
  std::size_t ops_executed = 0;

  bool ok() const { return fail_kind.empty(); }
};

// 64-bit FNV-1a: the digest hash, the edge salt and the tape fallback seed.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::uint64_t Hash64(std::string_view data, std::uint64_t basis = kFnvBasis);

// Strict unsigned decimal field of the text codecs.
Result<std::uint64_t> ParseU64(std::string_view text);

// A key of a text codec and the field its value lands in: an integer
// (ParseU64, truncated to the field's width), a string (verbatim) or a float.
struct CodecKey {
  std::string_view name;
  std::variant<std::uint32_t*, std::uint64_t*, std::string*, double*> field;
};

// Stores each "key=value" operand in the field its key names. An operand
// without '=', an unknown key or a malformed value fails.
Status ReadFields(const std::vector<std::string>& operands, std::initializer_list<CodecKey> keys);

// The line reader of both text codecs: splits each line of `text` that is
// neither blank nor a `#` comment into its head token and operands, calls
// `fn` on them and returns the first error, prefixed with its line number.
using CodecLineFn =
    std::function<Status(const std::string& head, const std::vector<std::string>& operands)>;
Status ForEachCodecLine(const std::string& text, const CodecLineFn& fn);

// The fixed configuration every harness guest boots with; only the name
// differs between vocabularies. Exposed so tests can recompute the guest
// memory layout (e.g. to seed bugs at known cells).
DomainConfig HarnessGuestConfig(std::string name);

template <typename Kind>
struct Weighted {
  Kind kind;
  std::uint32_t weight;
};

// Decision-tape reader: consumes mutation-controlled bytes first, then falls
// back to a deterministic stream derived from the seed, the vocabulary's
// salt and everything consumed, so `(seed, bytes) -> input` is a total,
// pure function.
class ByteTape {
 public:
  ByteTape(std::uint64_t seed, std::uint64_t salt, const std::vector<std::uint8_t>& bytes);

  std::uint8_t Byte();
  std::uint32_t Below(std::uint32_t bound) { return bound == 0 ? 0 : Byte() % bound; }

  // One roll over the table's total weight picks an op kind.
  template <typename Kind, std::size_t N>
  Kind Pick(const Weighted<Kind> (&table)[N]) {
    std::uint32_t total = 0;
    for (const Weighted<Kind>& w : table) {
      total += w.weight;
    }
    std::uint32_t roll = Below(total);
    for (const Weighted<Kind>& w : table) {
      if (roll < w.weight) {
        return w.kind;
      }
      roll -= w.weight;
    }
    return table[0].kind;
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
  Rng fallback_;
};

// The harness core. A vocabulary derives from it, stores its input, and
// implements the hooks; RunScenario / RunTape construct one and call Run().
class Harness {
 public:
  virtual ~Harness();
  RunResult Run();

 protected:
  // One oracle layer's verdict: "" passes.
  struct Check {
    const char* kind;
    std::string message;
  };

  // `edge_salt` keeps the vocabularies' coverage edges apart.
  Harness(const RunOptions& options, std::size_t num_ops, std::string guest_name,
          std::string_view edge_salt);

  // --- Vocabulary hooks. ---
  // Pool size, scheduler and post-copy knobs on top of the core's defaults.
  virtual void Configure(SystemConfig& config) const = 0;
  // Extra services, wired onto the fresh system before the boot settle.
  virtual void AddServices() {}
  // Op `i`'s text-encoding name (logged into the digest) and kind index
  // (folded into the coverage edges).
  virtual const char* OpName(std::size_t i) const = 0;
  virtual std::uint32_t OpKindIndex(std::size_t i) const = 0;
  virtual void ExecuteOp(std::size_t i) = 0;
  // The vocabulary's rule for every op status Record() logs.
  virtual void OnStatus(const Status& /*status*/) {}
  // The vocabulary's oracle layers; they run after the hypervisor layers
  // and only at settled points.
  virtual std::vector<Check> ModelChecks() = 0;
  // Runs once after the last op, before the first teardown destroy.
  virtual void BeforeTeardown() {}
  // Destroys one domain of the reverse-creation-order teardown.
  virtual void TeardownDomain(DomId dom) = 0;

  // --- Services for the hooks. ---
  // Records the first failure; later ones are ignored.
  void Fail(std::string kind, std::string message);
  void Settle();
  // Moves `dom` from the live list to the dead list.
  void Forget(DomId dom);
  Mfn StartInfoMfn(DomId dom) const;
  // Reads one tracked heap byte; "" when it matches the model's `want`.
  std::string CheckCell(DomId dom, std::uint32_t slot, Gfn gfn, std::size_t offset,
                        std::uint8_t want) const;
  // Logs an op's status code, then applies the vocabulary's OnStatus rule.
  void Record(const Status& status);

  // --- Ops both vocabularies share. ---
  // Boots one harness guest and settles; on success it joins the live list.
  Result<DomId> Launch();
  // Clone-batch survivors join the live list (logged " c<id>"), children
  // whose second stage aborted join the dead list (" a<id>"). Returns the
  // survivors in batch order.
  std::vector<DomId> AdoptChildren(const std::vector<DomId>& children);
  void ArmFault(const std::string& point, const FaultSpec& spec);
  void DisarmFaults();
  // Advances virtual time by `ns`, capped at one second, without settling.
  void AdvanceTime(std::uint64_t ns);

  const RunOptions& options_;
  std::unique_ptr<Host> sys_;
  std::vector<DomId> live_;  // creation order
  std::vector<DomId> dead_;  // destroyed ids (never reused)
  std::ostringstream log_;
  bool faults_armed_ = false;
  // Set by an op that leaves the system mid-flight on purpose; the oracle
  // waits for the next settled point.
  bool unsettled_ = false;
  // Status code a vocabulary folds into the current op's coverage edges.
  int edge_code_ = 0;
  Gfn heap0_ = 0;
  std::size_t guest_pages_ = 0;
  const DomainConfig guest_;

 private:
  void RunOracle();
  void CoverageEdges(std::uint32_t kind);
  void Edge(std::uint32_t value) { result_.edges.push_back(value % 0x10000u); }

  RunResult result_;
  const std::size_t num_ops_;
  std::size_t cur_op_ = 0;
  const std::uint64_t edge_seed_;
  std::uint32_t prev_kind_ = 0;
  std::size_t initial_free_ = 0;
};

// Coverage-guided input generation for vocabulary V: AflEngine mutates
// decision-tape bytes, V::FromBytes decodes them, and each run's edges feed
// the coverage map, so generation gravitates toward new harness states.
template <typename V>
class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed) : seed_(seed), engine_(seed) {
    // Graded seeds: the empty tape exercises the pure fallback stream, the
    // ramps give the mutator structure to splice and flip.
    engine_.AddSeed({});
    for (std::uint8_t len : {4, 12, 32}) {
      std::vector<std::uint8_t> ramp(len);
      for (std::uint8_t i = 0; i < len; ++i) {
        ramp[i] = static_cast<std::uint8_t>(i * 7 + len);
      }
      engine_.AddSeed(std::move(ramp));
    }
  }

  // Pulls the next mutated tape from the AFL queue and decodes it.
  typename V::Input Next() {
    last_bytes_ = engine_.NextInput();
    return V::FromBytes(seed_, last_bytes_);
  }
  // Feeds the run's edges (and crash bit) back for the latest Next().
  void Report(const RunResult& result) {
    engine_.ReportResult(last_bytes_, result.edges, !result.ok());
  }

  const AflEngine& engine() const { return engine_; }

 private:
  std::uint64_t seed_;
  AflEngine engine_;
  std::vector<std::uint8_t> last_bytes_;
};

template <typename V>
struct ShrinkOutcome {
  typename V::Input input;  // the minimised failing input
  RunResult result;         // its failing run
  std::size_t runs = 0;     // executions spent shrinking
};

// Minimises a failing input with the ddmin engine (src/dst/ddmin.h):
// truncate after the failing op, delete ops, then try V::SimplerVariants —
// accepting a candidate only when it still fails the same oracle layer.
// `options` travels with every rerun so seeded-bug hooks stay active.
template <typename V>
ShrinkOutcome<V> Shrink(const typename V::Input& failing, const RunResult& failure,
                        const RunOptions& options = {}) {
  using Op = typename V::Op;
  typename V::Input shell = failing;  // carries the non-op fields
  const std::string want_kind = failure.fail_kind;
  auto outcome = DdminShrink<Op, RunResult>(
      failing.ops, failure, failure.fail_op,
      [&shell, &options](const std::vector<Op>& ops) {
        shell.ops = ops;
        return V::Run(shell, options);
      },
      [&want_kind](const RunResult& r) { return !r.ok() && r.fail_kind == want_kind; },
      &V::SimplerVariants);
  shell.ops = std::move(outcome.ops);
  return ShrinkOutcome<V>{std::move(shell), std::move(outcome.result), outcome.runs};
}

}  // namespace nephele

#endif  // SRC_DST_HARNESS_H_
