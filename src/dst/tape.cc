#include "src/dst/tape.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <sstream>

namespace nephele {

namespace {

constexpr const char* kKindNames[kNumHvOpKinds] = {
    "launch", "clone",   "reset",   "cow",     "destroy", "grant",  "map",   "unmap",
    "endgrant", "evalloc", "evbind",  "evsend",  "evclose", "xswrite", "p9",   "write",
    "rawwrite", "read",    "touch",   "arm",     "disarm",  "advance", "settle",
    "lazyclone", "lazytouch", "stream",
};

// Fault points worth arming in fuzz tapes: the allocation, COW, grant,
// evtchn, clone-stage and xenstore paths, so fault-point interleavings hit
// every rollback the oracle guards. All NthHit — a shrunk tape still fires
// the same injection.
constexpr const char* kFaultMenu[] = {
    "hypervisor/frame_alloc", "hypervisor/cow_resolve", "hypervisor/grant_access",
    "hypervisor/evtchn_alloc", "clone/stage1/memory",    "clone/stage1/share",
    "clone/stage1/grants",     "clone/stage1/evtchns",   "clone/reset",
    "xencloned/stage2",        "xenstore/request",       "lazy/stream",
    "lazy/demand_fault",
};

// Hostile structural ops (grants, event channels, raw guest access) dominate;
// launches are frequent enough that most tapes have several live targets.
constexpr Weighted<HvOpKind> kWeights[] = {
    {HvOpKind::kLaunch, 4},   {HvOpKind::kClone, 5},   {HvOpKind::kReset, 3},
    {HvOpKind::kCow, 3},      {HvOpKind::kDestroy, 3}, {HvOpKind::kGrant, 5},
    {HvOpKind::kMap, 5},      {HvOpKind::kUnmap, 4},   {HvOpKind::kEndGrant, 3},
    {HvOpKind::kEvAlloc, 4},  {HvOpKind::kEvBind, 4},  {HvOpKind::kEvSend, 4},
    {HvOpKind::kEvClose, 4},  {HvOpKind::kXsWrite, 4}, {HvOpKind::kP9, 4},
    {HvOpKind::kWrite, 6},    {HvOpKind::kRawWrite, 5}, {HvOpKind::kRead, 3},
    {HvOpKind::kTouch, 4},    {HvOpKind::kArm, 2},     {HvOpKind::kDisarm, 2},
    {HvOpKind::kAdvance, 3},  {HvOpKind::kSettle, 1},  {HvOpKind::kLazyClone, 5},
    {HvOpKind::kLazyTouch, 5}, {HvOpKind::kStream, 4},
};

}  // namespace

const char* HvOpKindName(HvOpKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

HvTape HvVocabulary::FromBytes(std::uint64_t seed, const std::vector<std::uint8_t>& bytes) {
  ByteTape t(seed, 0x687666757a7aULL /* "hvfuzz" */, bytes);
  HvTape tape;
  tape.seed = seed;

  const std::size_t num_ops = 6 + t.Below(26);

  // Every tape opens with a root guest so early ops have a live target.
  HvOp boot;
  boot.kind = HvOpKind::kLaunch;
  tape.ops.push_back(boot);

  while (tape.ops.size() < num_ops) {
    HvOp op;
    op.kind = t.Pick(kWeights);
    switch (op.kind) {
      case HvOpKind::kLaunch:
      case HvOpKind::kDisarm:
      case HvOpKind::kSettle:
        break;
      case HvOpKind::kClone:
      case HvOpKind::kLazyClone:
        op.a = t.Byte();
        op.b = t.Byte();
        op.n = 1 + t.Below(4);
        op.flags = t.Below(4);
        break;
      case HvOpKind::kReset:
        op.a = t.Byte();
        op.b = t.Byte();
        break;
      case HvOpKind::kCow:
      case HvOpKind::kTouch:
      case HvOpKind::kLazyTouch:
        op.a = t.Byte();
        op.c = t.Byte();
        op.n = t.Byte();
        break;
      case HvOpKind::kStream:
        op.a = t.Byte();
        op.n = t.Byte();
        op.flags = t.Below(2);
        break;
      case HvOpKind::kDestroy:
        op.a = t.Byte();
        break;
      case HvOpKind::kGrant:
        op.a = t.Byte();
        op.b = t.Byte();
        op.c = t.Byte();
        op.flags = t.Below(2);
        break;
      case HvOpKind::kMap:
      case HvOpKind::kUnmap:
      case HvOpKind::kEndGrant:
      case HvOpKind::kEvBind:
      case HvOpKind::kEvSend:
      case HvOpKind::kEvClose:
        op.a = t.Byte();
        op.c = t.Byte();
        break;
      case HvOpKind::kEvAlloc:
        op.a = t.Byte();
        op.b = t.Byte();
        break;
      case HvOpKind::kXsWrite:
        op.a = t.Byte();
        op.b = t.Byte();
        op.c = t.Byte();
        break;
      case HvOpKind::kP9:
        op.a = t.Byte();
        op.b = t.Byte();
        op.c = t.Byte();
        break;
      case HvOpKind::kWrite:
        op.a = t.Byte();
        op.c = t.Byte();
        op.v = t.Byte();
        break;
      case HvOpKind::kRawWrite:
      case HvOpKind::kRead:
        op.a = t.Byte();
        op.c = t.Byte();
        op.n = t.Byte();
        op.v = t.Byte();
        break;
      case HvOpKind::kArm:
        op.point = kFaultMenu[t.Below(std::size(kFaultMenu))];
        op.nth = 1 + t.Below(3);
        break;
      case HvOpKind::kAdvance:
        op.amount = (1ull + t.Byte()) * 250'000ull;  // 0.25 .. 64 ms
        break;
    }
    tape.ops.push_back(op);
  }
  return tape;
}

std::string TapeToText(const HvTape& tape) {
  std::ostringstream out;
  out << "# nephele hvfuzz tape v1\n";
  out << "seed " << tape.seed << '\n';
  for (const HvOp& op : tape.ops) {
    out << HvOpKindName(op.kind);
    if (op.a != 0) out << " a=" << op.a;
    if (op.b != 0) out << " b=" << op.b;
    if (op.c != 0) out << " c=" << op.c;
    if (op.n != 0) out << " n=" << op.n;
    if (op.v != 0) out << " v=" << op.v;
    if (op.flags != 0) out << " flags=" << op.flags;
    if (op.amount != 0) out << " amount=" << op.amount;
    if (op.nth != 1) out << " nth=" << op.nth;
    if (!op.point.empty()) out << " point=" << op.point;
    out << '\n';
  }
  return out.str();
}

Result<HvTape> ParseTape(const std::string& text) {
  HvTape tape;
  bool saw_seed = false;
  auto parse_line = [&tape, &saw_seed](const std::string& head,
                                       const std::vector<std::string>& operands) -> Status {
    if (!saw_seed) {
      if (head != "seed") {
        return ErrInvalidArgument("tape must start with a seed line");
      }
      NEPHELE_ASSIGN_OR_RETURN(tape.seed, ParseU64(operands.empty() ? "" : operands[0]));
      saw_seed = true;
      return Status::Ok();
    }
    const auto* name = std::find(std::begin(kKindNames), std::end(kKindNames), head);
    if (name == std::end(kKindNames)) {
      return ErrInvalidArgument("unknown op: " + head);
    }
    HvOp op;
    op.kind = static_cast<HvOpKind>(name - std::begin(kKindNames));
    NEPHELE_RETURN_IF_ERROR(ReadFields(
        operands, {{"a", &op.a}, {"b", &op.b}, {"c", &op.c}, {"n", &op.n}, {"v", &op.v},
                   {"flags", &op.flags}, {"amount", &op.amount}, {"nth", &op.nth},
                   {"point", &op.point}}));
    tape.ops.push_back(std::move(op));
    return Status::Ok();
  };
  NEPHELE_RETURN_IF_ERROR(ForEachCodecLine(text, parse_line));
  if (!saw_seed) {
    return ErrInvalidArgument("tape must start with a seed line");
  }
  return tape;
}

std::vector<HvOp> HvVocabulary::SimplerVariants(const HvOp& op) {
  std::vector<HvOp> out;
  auto add = [&out, &op](auto mutate) {
    HvOp v = op;
    mutate(v);
    if (!(v == op)) {
      out.push_back(std::move(v));
    }
  };
  add([](HvOp& v) { v.a = 0; });
  add([](HvOp& v) { v.b = 0; });
  add([](HvOp& v) { v.c = 0; });
  add([](HvOp& v) {
    v.n = v.kind == HvOpKind::kClone || v.kind == HvOpKind::kLazyClone ? 1 : 0;
  });
  add([](HvOp& v) { v.v = v.v > 1 ? 1 : v.v; });
  add([](HvOp& v) { v.flags = 0; });
  // A lazy clone that eagerly maps everything is the simpler mechanism.
  add([](HvOp& v) {
    if (v.kind == HvOpKind::kLazyClone) {
      v.kind = HvOpKind::kClone;
    }
  });
  add([](HvOp& v) { v.amount = v.amount > 1 ? 1 : v.amount; });
  add([](HvOp& v) { v.nth = 1; });
  return out;
}

}  // namespace nephele
