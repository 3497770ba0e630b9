#include "src/dst/scenario.h"

#include <algorithm>
#include <sstream>

#include "src/dst/reference_model.h"

namespace nephele {

namespace {

constexpr const char* kOpNames[] = {
    "launch",      "clone",  "write",  "reset", "destroy",       "migrate_out",
    "migrate_in",  "arm",    "disarm", "devio", "advance",       "sched_acquire",
    "sched_release", "clone_lazy", "touch_unmapped",
};

bool SpecEquals(const FaultSpec& a, const FaultSpec& b) {
  return a.policy == b.policy && a.nth == b.nth && a.probability == b.probability &&
         a.seed == b.seed && a.code == b.code;
}

}  // namespace

const char* OpKindName(OpKind kind) { return kOpNames[static_cast<std::size_t>(kind)]; }

bool Op::operator==(const Op& other) const {
  return kind == other.kind && dom == other.dom && n == other.n && workers == other.workers &&
         slot == other.slot && value == other.value && amount == other.amount &&
         point == other.point && SpecEquals(spec, other.spec);
}

std::string Scenario::ToText() const {
  std::ostringstream out;
  out << "# nephele dst scenario v1\n";
  out << "seed " << seed << "\n";
  out << "pool_frames " << pool_frames << "\n";
  for (const Op& op : ops) {
    out << OpKindName(op.kind);
    switch (op.kind) {
      case OpKind::kLaunchGuest:
        break;
      case OpKind::kCloneBatch:
        out << " dom=" << op.dom << " n=" << op.n;
        if (op.workers != 0) {
          out << " workers=" << op.workers;
        }
        break;
      case OpKind::kCowWrite:
        out << " dom=" << op.dom << " slot=" << op.slot << " val=" << op.value;
        break;
      case OpKind::kCloneReset:
      case OpKind::kDestroy:
      case OpKind::kMigrateOut:
        out << " dom=" << op.dom;
        break;
      case OpKind::kMigrateIn:
        out << " stream=" << op.slot;
        break;
      case OpKind::kArmFault:
        out << " point=" << op.point;
        if (op.spec.policy == FaultSpec::Policy::kNthHit) {
          out << " nth=" << op.spec.nth;
        } else if (op.spec.policy == FaultSpec::Policy::kProbability) {
          out << " p=" << op.spec.probability << " pseed=" << op.spec.seed;
        }
        break;
      case OpKind::kDisarmFaults:
        break;
      case OpKind::kDeviceIo:
        out << " dom=" << op.dom << " key=" << op.slot << " val=" << op.value;
        break;
      case OpKind::kAdvanceTime:
        out << " ns=" << op.amount;
        break;
      case OpKind::kSchedAcquire:
        out << " dom=" << op.dom << " n=" << op.n;
        break;
      case OpKind::kSchedRelease:
        out << " slot=" << op.slot;
        break;
      case OpKind::kCloneLazy:
        out << " dom=" << op.dom << " n=" << op.n;
        if (op.workers != 0) {
          out << " workers=" << op.workers;
        }
        out << " slot=" << op.slot;
        break;
      case OpKind::kTouchUnmapped:
        out << " dom=" << op.dom << " slot=" << op.slot << " val=" << op.value;
        break;
    }
    out << "\n";
  }
  return out.str();
}

Result<Scenario> Scenario::FromText(const std::string& text) {
  Scenario scenario;
  auto parse_line = [&scenario](const std::string& head,
                                const std::vector<std::string>& operands) -> Status {
    if (head == "seed" || head == "pool_frames") {
      NEPHELE_ASSIGN_OR_RETURN(std::uint64_t v, ParseU64(operands.empty() ? "" : operands[0]));
      if (head == "seed") {
        scenario.seed = v;
      } else {
        scenario.pool_frames = static_cast<std::size_t>(v);
      }
      return Status::Ok();
    }

    const auto* name = std::find(std::begin(kOpNames), std::end(kOpNames), head);
    if (name == std::end(kOpNames)) {
      return ErrInvalidArgument("unknown op '" + head + "'");
    }
    Op op;
    op.kind = static_cast<OpKind>(name - std::begin(kOpNames));

    // kArmFault defaults to an nth=1 spec so `arm point=x` alone is valid.
    double probability = -1.0;
    std::uint64_t nth = 0;
    std::uint64_t pseed = 0;
    NEPHELE_RETURN_IF_ERROR(ReadFields(
        operands, {{"dom", &op.dom}, {"n", &op.n}, {"workers", &op.workers}, {"slot", &op.slot},
                   {"key", &op.slot}, {"stream", &op.slot}, {"val", &op.value},
                   {"ns", &op.amount}, {"point", &op.point}, {"p", &probability},
                   {"nth", &nth}, {"pseed", &pseed}}));
    if (op.kind == OpKind::kArmFault) {
      if (op.point.empty()) {
        return ErrInvalidArgument("arm needs point=");
      }
      if (probability >= 0.0) {
        op.spec = FaultSpec::WithProbability(probability, pseed);
      } else {
        op.spec = FaultSpec::NthHit(nth == 0 ? 1 : nth);
      }
    }
    scenario.ops.push_back(std::move(op));
    return Status::Ok();
  };
  NEPHELE_RETURN_IF_ERROR(ForEachCodecLine(text, parse_line));
  return scenario;
}

namespace {

// Fault points worth arming in generated scenarios: the clone, reset and
// xenstore paths the oracle exercises. Probability faults are avoided here —
// NthHit specs keep the injected error at a tape-chosen hit, so a shrunk
// scenario still fires it.
constexpr const char* kFaultMenu[] = {
    "clone/stage1/create_domain",
    "clone/stage1/memory",
    "clone/stage1/share",
    "clone/stage1/page_tables",
    "clone/stage1/grants",
    "clone/stage1/evtchns",
    "clone/reset",
    "xencloned/stage2",
    "hypervisor/frame_alloc",
    "hypervisor/cow_resolve",
    "xenstore/xs_clone",
    "sched/admit",
    "sched/dispatch",
    "sched/park",
    "lazy/stream",
    "lazy/demand_fault",
};

// The walk's op distribution. Writes dominate (they drive COW churn, the
// richest invariant surface); structural ops are rarer so scenarios keep a
// small, shrinkable domain population.
constexpr Weighted<OpKind> kWeights[] = {
    {OpKind::kLaunchGuest, 3}, {OpKind::kCloneBatch, 6}, {OpKind::kCowWrite, 10},
    {OpKind::kCloneReset, 4},  {OpKind::kDestroy, 2},    {OpKind::kMigrateOut, 1},
    {OpKind::kMigrateIn, 1},   {OpKind::kArmFault, 2},   {OpKind::kDisarmFaults, 2},
    {OpKind::kDeviceIo, 4},    {OpKind::kAdvanceTime, 2}, {OpKind::kSchedAcquire, 4},
    {OpKind::kSchedRelease, 3}, {OpKind::kCloneLazy, 5},  {OpKind::kTouchUnmapped, 6},
};

}  // namespace

Scenario DstVocabulary::FromBytes(std::uint64_t seed, const std::vector<std::uint8_t>& bytes) {
  ByteTape t(seed, 0x6e657068656c65ULL /* "nephele" */, bytes);
  Scenario scenario;
  scenario.seed = seed;

  const std::size_t num_ops = 8 + t.Below(25);
  // Approximate live count, only used to bias the walk (the harness
  // re-resolves indices modulo the actual live set).
  std::uint32_t live = 0;
  bool armed = false;

  // Every scenario opens with a root guest so early ops have a target.
  Op boot;
  boot.kind = OpKind::kLaunchGuest;
  scenario.ops.push_back(boot);
  ++live;

  while (scenario.ops.size() < num_ops) {
    Op op;
    op.kind = t.Pick(kWeights);
    switch (op.kind) {
      case OpKind::kLaunchGuest:
        ++live;
        break;
      case OpKind::kCloneBatch:
        op.dom = t.Below(live != 0 ? live : 1);
        op.n = 1 + t.Below(4);
        op.workers = t.Below(5);  // 0 = keep current thread count
        live += op.n;
        break;
      case OpKind::kCowWrite:
        op.dom = t.Below(live != 0 ? live : 1);
        op.slot = t.Below(ReferenceModel::kCells);
        op.value = 1 + t.Below(255);
        break;
      case OpKind::kCloneReset:
      case OpKind::kDestroy:
      case OpKind::kMigrateOut:
        op.dom = t.Below(live != 0 ? live : 1);
        if (op.kind != OpKind::kCloneReset && live > 0) {
          --live;
        }
        break;
      case OpKind::kMigrateIn:
        op.slot = t.Byte();
        ++live;
        break;
      case OpKind::kArmFault:
        op.point = kFaultMenu[t.Below(std::size(kFaultMenu))];
        op.spec = FaultSpec::NthHit(1 + t.Below(20));
        armed = true;
        break;
      case OpKind::kDisarmFaults:
        if (!armed) {
          continue;  // pointless op; spend the byte, emit nothing
        }
        armed = false;
        break;
      case OpKind::kDeviceIo:
        op.dom = t.Below(live != 0 ? live : 1);
        op.slot = t.Below(8);
        op.value = t.Byte();
        break;
      case OpKind::kAdvanceTime:
        op.amount = static_cast<std::uint64_t>(1 + t.Byte()) * 1000;
        break;
      case OpKind::kSchedAcquire:
        op.dom = t.Below(live != 0 ? live : 1);
        op.n = 1 + t.Below(2);
        live += op.n;  // approximate: grants may come warm or be rejected
        break;
      case OpKind::kSchedRelease:
        op.slot = t.Byte();
        break;
      case OpKind::kCloneLazy:
        op.dom = t.Below(live != 0 ? live : 1);
        op.n = 1 + t.Below(4);
        op.workers = t.Below(5);  // 0 = keep current thread count
        op.slot = t.Below(ReferenceModel::kTrackedPages);  // hot-page hint
        live += op.n;
        break;
      case OpKind::kTouchUnmapped:
        op.dom = t.Below(live != 0 ? live : 1);
        op.slot = t.Below(ReferenceModel::kTrackedPages);
        op.value = 1 + t.Below(255);
        break;
    }
    scenario.ops.push_back(std::move(op));
  }

  // Leave no fault armed at scenario end: the teardown phase asserts exact
  // frame conservation, which injected destroy failures would void.
  if (armed) {
    Op disarm;
    disarm.kind = OpKind::kDisarmFaults;
    scenario.ops.push_back(disarm);
  }
  return scenario;
}

std::vector<Op> DstVocabulary::SimplerVariants(const Op& op) {
  std::vector<Op> variants;
  auto push = [&](Op v) {
    if (!(v == op)) {
      variants.push_back(std::move(v));
    }
  };
  Op v = op;
  switch (op.kind) {
    case OpKind::kCloneBatch:
      v.n = 1;
      push(v);
      v = op;
      v.workers = 0;
      push(v);
      v = op;
      v.dom = 0;
      push(v);
      break;
    case OpKind::kCowWrite:
      v.value = 1;
      push(v);
      v = op;
      v.slot = 0;
      push(v);
      v = op;
      v.dom = 0;
      push(v);
      break;
    case OpKind::kCloneReset:
    case OpKind::kDestroy:
    case OpKind::kMigrateOut:
      v.dom = 0;
      push(v);
      break;
    case OpKind::kMigrateIn:
    case OpKind::kDeviceIo:
      v.slot = 0;
      push(v);
      v = op;
      v.value = std::min<std::uint32_t>(op.value, 1);
      push(v);
      break;
    case OpKind::kArmFault:
      if (op.spec.policy == FaultSpec::Policy::kNthHit && op.spec.nth > 1) {
        v.spec = FaultSpec::NthHit(1);
        push(v);
      }
      break;
    case OpKind::kAdvanceTime:
      v.amount = 1;
      push(v);
      break;
    case OpKind::kSchedAcquire:
      v.n = 1;
      push(v);
      v = op;
      v.dom = 0;
      push(v);
      break;
    case OpKind::kSchedRelease:
      v.slot = 0;
      push(v);
      break;
    case OpKind::kCloneLazy:
      v.n = 1;
      push(v);
      v = op;
      v.workers = 0;
      push(v);
      v = op;
      v.dom = 0;
      push(v);
      v = op;
      v.slot = 0;
      push(v);
      // The eager clone is the strictly simpler mechanism: if the failure
      // does not need post-copy streaming, drop it.
      v = op;
      v.kind = OpKind::kCloneBatch;
      v.slot = 0;
      push(v);
      break;
    case OpKind::kTouchUnmapped:
      v.slot = 0;
      push(v);
      v = op;
      v.value = 1;
      push(v);
      v = op;
      v.dom = 0;
      push(v);
      // A plain tracked-cell write is simpler than hunting for a deferred
      // page: keep it if the failure doesn't need the demand-fault path.
      v = op;
      v.kind = OpKind::kCowWrite;
      push(v);
      break;
    case OpKind::kLaunchGuest:
    case OpKind::kDisarmFaults:
      break;
  }
  return variants;
}

}  // namespace nephele
