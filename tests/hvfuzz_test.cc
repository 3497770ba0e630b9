// Hostile-guest fuzzing suite (label: hvfuzz).
//
// Drives the hostile-tape vocabulary of src/dst: the shared harness suite
// (tests/harness_suite.h) replays the shrunk crash corpus
// (tests/hvfuzz_corpus), requires every tape oracle-clean and
// byte-deterministic across clone worker counts, and runs fresh
// coverage-guided rounds — NEPHELE_HVFUZZ_ROUNDS overrides the default 200
// (0 skips). On top, the tape codec and decoder, and the proof that the
// oracle + shrinker pipeline works: deliberate invariant bugs seeded behind
// the model's back must be caught and auto-shrunk to a minimal tape.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/dst/ddmin.h"
#include "src/dst/tape.h"
#include "tests/harness_suite.h"

namespace nephele {
namespace {

struct HvSuite : HvVocabulary {
  static constexpr const char* kCorpusDir = NEPHELE_HVFUZZ_CORPUS_DIR;
  static constexpr const char* kCorpusExt = ".tape";
  static Result<HvTape> Parse(const std::string& text) { return ParseTape(text); }
  static std::string ToText(const HvTape& tape) { return TapeToText(tape); }
  static int Rounds() {
    const char* env = std::getenv("NEPHELE_HVFUZZ_ROUNDS");
    return env == nullptr || *env == '\0' ? 200 : std::atoi(env);
  }
};

// --- Tape format. ---

TEST(HvTapeTest, TextRoundTripsEveryOpKind) {
  HvTape tape;
  tape.seed = 42;
  for (std::size_t i = 0; i < kNumHvOpKinds; ++i) {
    HvOp op;
    op.kind = static_cast<HvOpKind>(i);
    op.a = static_cast<std::uint32_t>(i * 3 + 1);
    op.b = static_cast<std::uint32_t>(i * 5 + 2);
    op.c = static_cast<std::uint32_t>(i * 7 + 3);
    op.n = static_cast<std::uint32_t>(i + 1);
    op.v = static_cast<std::uint32_t>(i * 2);
    op.flags = static_cast<std::uint32_t>(i % 4);
    op.amount = i * 1000;
    op.nth = 1 + i % 3;
    if (op.kind == HvOpKind::kArm) {
      op.point = "hypervisor/frame_alloc";
    }
    tape.ops.push_back(op);
  }
  auto parsed = ParseTape(TapeToText(tape));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, tape);
}

TEST(HvTapeTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseTape("").ok());                          // no seed line
  EXPECT_FALSE(ParseTape("launch\n").ok());                  // op before seed
  EXPECT_FALSE(ParseTape("seed 1\nwarp a=1\n").ok());        // unknown op
  EXPECT_FALSE(ParseTape("seed 1\nclone a\n").ok());         // not key=value
  EXPECT_FALSE(ParseTape("seed 1\nclone q=1\n").ok());       // unknown field
  EXPECT_FALSE(ParseTape("seed 1\nclone a=beef\n").ok());    // non-numeric
  EXPECT_FALSE(ParseTape("seed x\n").ok());                  // bad seed
}

TEST(HvTapeTest, DecoderIsTotalAndPure) {
  std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0x13, 0x7A, 0x42};
  HvTape a = HvVocabulary::FromBytes(7, bytes);
  HvTape b = HvVocabulary::FromBytes(7, bytes);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.ops.empty());
  EXPECT_EQ(a.ops[0].kind, HvOpKind::kLaunch);

  // Any byte string decodes; empty relies purely on the fallback stream.
  HvTape empty1 = HvVocabulary::FromBytes(3, {});
  HvTape empty2 = HvVocabulary::FromBytes(3, {});
  EXPECT_EQ(empty1, empty2);
  EXPECT_GE(empty1.ops.size(), 6u);
}

// --- The shared harness suite. ---

TEST(HvFuzzCorpusTest, EveryTapeReplaysOracleClean) { CorpusReplaysOracleClean<HvSuite>(); }

TEST(HvFuzzCorpusTest, DigestsAreByteIdenticalAcrossRerunsAndWorkers) {
  CorpusDigestsAreStable<HvSuite>();
}

TEST(HvFuzzRoundsTest, SeededRoundsStayOracleClean) { GeneratedInputsSatisfyTheOracle<HvSuite>(); }

TEST(HvFuzzRoundsTest, GeneratedTapesAreWorkerCountInvariant) {
  GeneratedDigestsAreStable<HvSuite>();
}

// --- Seeded invariant bugs: the oracle must catch, the shrinker minimise. ---

HvTape ThreeOpTape() {
  HvTape tape;
  tape.ops.emplace_back();  // launch
  HvOp grant;
  grant.kind = HvOpKind::kGrant;
  grant.c = 1;
  tape.ops.push_back(grant);
  HvOp ev;
  ev.kind = HvOpKind::kEvAlloc;
  tape.ops.push_back(ev);
  return tape;
}

TEST(HvFuzzSeededBugTest, CowIsolationBugIsCaughtAndShrinksToMinimalTape) {
  // Poison tracked cell 0 of every guest behind the model's back: the cells
  // oracle must flag it on the first settled op with a live guest.
  RunOptions opts;
  opts.after_op = [](NepheleSystem& sys, std::string_view, std::size_t) {
    for (DomId id : sys.hypervisor().DomainIds()) {
      if (id == kDom0) {
        continue;
      }
      const std::size_t heap0 = ComputeGuestLayout(HarnessGuestConfig("hvfuzz")).heap_first_gfn;
      const std::uint8_t evil = 0x5A;
      // Cell 0 lives at (heap_first_gfn, offset 17) — see tape_harness.cc.
      (void)sys.hypervisor().WriteGuestPage(id, static_cast<Gfn>(heap0), 17, &evil, 1);
      break;
    }
  };
  HvTape tape = ThreeOpTape();
  RunResult r = RunTape(tape, opts);
  ASSERT_EQ(r.fail_kind, "cells") << r.message;

  auto shrunk = Shrink<HvVocabulary>(tape, r, opts);
  EXPECT_LE(shrunk.input.ops.size(), 3u);
  EXPECT_EQ(shrunk.result.fail_kind, "cells");
  // The failure needs nothing beyond booting one guest.
  ASSERT_EQ(shrunk.input.ops.size(), 1u);
  EXPECT_EQ(shrunk.input.ops[0].kind, HvOpKind::kLaunch);
}

TEST(HvFuzzSeededBugTest, FrameRefcountBugIsCaughtAndShrinks) {
  // Drop a reference the p2m still holds: frame conservation must fail.
  RunOptions opts;
  opts.after_op = [](NepheleSystem& sys, std::string_view, std::size_t) {
    for (DomId id : sys.hypervisor().DomainIds()) {
      if (id == kDom0) {
        continue;
      }
      const Domain* d = sys.hypervisor().FindDomain(id);
      if (d == nullptr || d->p2m.empty()) {
        continue;
      }
      (void)sys.hypervisor().frames().Release(d->p2m[0].mfn);
      break;
    }
  };
  HvTape tape = ThreeOpTape();
  RunResult r = RunTape(tape, opts);
  ASSERT_EQ(r.fail_kind, "frames") << r.message;

  auto shrunk = Shrink<HvVocabulary>(tape, r, opts);
  EXPECT_LE(shrunk.input.ops.size(), 3u);
  EXPECT_EQ(shrunk.result.fail_kind, "frames");
}

// --- The shared ddmin engine (also exercised end-to-end above). ---

TEST(DdminEngineTest, FindsTheMinimalFailingSubsequence) {
  std::vector<int> ops = {1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t runs_seen = 0;
  auto outcome = DdminShrink<int, bool>(
      ops, true, ops.size() - 1,
      [&runs_seen](const std::vector<int>& candidate) {
        ++runs_seen;
        bool has3 = false;
        bool has7 = false;
        for (int v : candidate) {
          has3 |= v == 3;
          has7 |= v == 7;
        }
        return has3 && has7;
      },
      [](const bool& failed) { return failed; },
      [](const int&) { return std::vector<int>{}; });
  EXPECT_EQ(outcome.ops, (std::vector<int>{3, 7}));
  EXPECT_TRUE(outcome.result);
  EXPECT_EQ(outcome.runs, runs_seen);
}

}  // namespace
}  // namespace nephele
