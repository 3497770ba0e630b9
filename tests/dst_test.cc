// The deterministic-simulation-testing suite (label: dst).
//
// Drives the scenario vocabulary of src/dst end to end: the shared harness
// suite (tests/harness_suite.h — corpus replay, coverage-guided generation
// with the full oracle after every op, digest determinism across reruns and
// worker-thread counts), plus the scenario codec, the reference model and
// the seeded-bug catch + shrink loop that proves the harness can actually
// find and minimise a defect.

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/dst/reference_model.h"
#include "src/dst/scenario.h"
#include "tests/harness_suite.h"

namespace nephele {
namespace {

#ifndef NEPHELE_DST_CORPUS_DIR
#define NEPHELE_DST_CORPUS_DIR "tests/dst_corpus"
#endif

struct DstSuite : DstVocabulary {
  static constexpr const char* kCorpusDir = NEPHELE_DST_CORPUS_DIR;
  static constexpr const char* kCorpusExt = ".scn";
  static Result<Scenario> Parse(const std::string& text) { return Scenario::FromText(text); }
  static std::string ToText(const Scenario& scenario) { return scenario.ToText(); }
  static int Rounds() { return 200; }
};

Scenario MustParse(const std::string& text) {
  auto parsed = Scenario::FromText(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

// ---------------------------------------------------------------------------
// Scenario text encoding.
// ---------------------------------------------------------------------------

TEST(DstScenarioTest, TextRoundTripsEveryOpKind) {
  Scenario scenario;
  scenario.seed = 42;
  scenario.pool_frames = 9000;
  Op op;
  op.kind = OpKind::kLaunchGuest;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kCloneBatch;
  op.dom = 1;
  op.n = 3;
  op.workers = 4;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kCowWrite;
  op.dom = 2;
  op.slot = 17;
  op.value = 200;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kCloneReset;
  op.dom = 3;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kDestroy;
  op.dom = 1;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kMigrateOut;
  op.dom = 0;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kMigrateIn;
  op.slot = 2;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kArmFault;
  op.point = "clone/stage1/share";
  op.spec = FaultSpec::NthHit(5);
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kArmFault;
  op.point = "xenstore/request";
  op.spec = FaultSpec::WithProbability(0.25, 99);
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kDisarmFaults;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kDeviceIo;
  op.dom = 0;
  op.slot = 5;
  op.value = 77;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kAdvanceTime;
  op.amount = 123456;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kSchedAcquire;
  op.dom = 1;
  op.n = 2;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kSchedRelease;
  op.slot = 3;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kCloneLazy;
  op.dom = 0;
  op.n = 2;
  op.workers = 2;
  op.slot = 4;
  scenario.ops.push_back(op);
  op = Op{};
  op.kind = OpKind::kTouchUnmapped;
  op.dom = 1;
  op.slot = 5;
  op.value = 99;
  scenario.ops.push_back(op);

  const std::string text = scenario.ToText();
  Scenario reparsed = MustParse(text);
  EXPECT_EQ(scenario, reparsed);
  // Encoding is canonical: a second round trip is byte-identical.
  EXPECT_EQ(text, reparsed.ToText());
}

TEST(DstScenarioTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(Scenario::FromText("frobnicate dom=1\n").ok());
  EXPECT_FALSE(Scenario::FromText("write dom=1 wat=3\n").ok());
  EXPECT_FALSE(Scenario::FromText("write dom=abc\n").ok());
  EXPECT_FALSE(Scenario::FromText("arm nth=2\n").ok());  // missing point=
  EXPECT_FALSE(Scenario::FromText("clone dom\n").ok());  // operand without =
}

TEST(DstScenarioTest, TapeDecodingIsPure) {
  std::vector<std::uint8_t> tape = {7, 13, 255, 0, 42, 99, 1, 2, 3};
  Scenario a = DstVocabulary::FromBytes(123, tape);
  Scenario b = DstVocabulary::FromBytes(123, tape);
  EXPECT_EQ(a, b);
  // A different seed re-derives the fallback stream: scenarios diverge.
  Scenario c = DstVocabulary::FromBytes(124, tape);
  EXPECT_FALSE(a == c);
}

// ---------------------------------------------------------------------------
// Reference model unit checks.
// ---------------------------------------------------------------------------

TEST(DstModelTest, ResetRestoresParentCurrentContentAndCountsDuplicates) {
  ReferenceModel model;
  model.Launch(1);
  model.Write(1, 0, 10);
  model.CloneBatchPlanned(1, 1);
  model.CloneChild(1, 2);
  // Child dirties slot 0's page, parent then moves on.
  model.Write(2, 0, 99);
  model.Write(1, 0, 77);
  // A second clone re-shares the child? No — re-share happens on reset. The
  // duplicate comes from clone->write->clone->write on the same page:
  model.CloneBatchPlanned(2, 1);
  model.CloneChild(2, 3);
  model.Write(2, 1, 5);  // same page as slot 0, re-dirties after re-share
  EXPECT_EQ(model.Reset(2), 2u);  // page 0 appears twice on the dirty list
  // Reset copied the parent's *current* cells: slot 0 is 77, not 10.
  EXPECT_EQ(model.Find(2)->cells[0], 77);
  EXPECT_TRUE(model.Find(2)->dirty.empty());
}

TEST(DstModelTest, DestroyReparentsToGrandparent) {
  ReferenceModel model;
  model.Launch(1);
  model.CloneBatchPlanned(1, 1);
  model.CloneChild(1, 2);
  model.CloneBatchPlanned(2, 1);
  model.CloneChild(2, 3);
  model.Destroy(2);
  EXPECT_EQ(model.Find(3)->parent, 1u);
  model.Destroy(1);
  EXPECT_EQ(model.Find(3)->parent, kDomInvalid);
  EXPECT_FALSE(model.CanReset(3));
}

// ---------------------------------------------------------------------------
// The shared harness suite: corpus replay, >= 200 generated scenarios under
// the oracle, and digest determinism across reruns and worker counts.
// ---------------------------------------------------------------------------

TEST(DstCorpusTest, EveryStoredScenarioReplaysGreen) { CorpusReplaysOracleClean<DstSuite>(); }

TEST(DstCorpusTest, DigestsAreByteIdenticalAcrossRerunsAndWorkers) {
  CorpusDigestsAreStable<DstSuite>();
}

TEST(DstGenerationTest, TwoHundredGeneratedScenariosSatisfyTheOracle) {
  GeneratedInputsSatisfyTheOracle<DstSuite>();
}

TEST(DstGenerationTest, DigestsAreIdenticalAcrossRerunsAndWorkerCounts) {
  GeneratedDigestsAreStable<DstSuite>();
}

// ---------------------------------------------------------------------------
// Seeded bug: the oracle catches it, the shrinker minimises it.
// ---------------------------------------------------------------------------

// The deliberate defect: after every advance op, a stray hypervisor write
// lands in the newest guest's first tracked cell behind the model's back —
// the shape of a real bug where some background path scribbles over guest
// memory.
RunOptions SeededBugOptions() {
  RunOptions options;
  options.after_op = [](NepheleSystem& sys, std::string_view op, std::size_t) {
    if (op != OpKindName(OpKind::kAdvanceTime)) {
      return;
    }
    const auto ids = sys.hypervisor().DomainIds();
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      if (*it == kDom0) {
        continue;
      }
      const GuestMemoryLayout layout = ComputeGuestLayout(HarnessGuestConfig("dst"));
      const std::uint8_t rogue = 0x5a;
      (void)sys.hypervisor().WriteGuestPage(*it, static_cast<Gfn>(layout.heap_first_gfn), 0,
                                            &rogue, 1);
      return;
    }
  };
  return options;
}

TEST(DstShrinkTest, SeededBugIsCaughtAndShrunkToAMinimalReproducer) {
  // A long scenario with one advance op buried in structural noise.
  Scenario scenario = MustParse(
      "seed 77\n"
      "launch\n"
      "write dom=0 slot=3 val=9\n"
      "advance ns=1000\n"
      "launch\n"
      "devio dom=0 key=1 val=5\n"
      "clone dom=0 n=2\n"
      "write dom=2 slot=0 val=4\n"
      "write dom=1 slot=7 val=8\n"
      "reset dom=2\n"
      "devio dom=1 key=2 val=6\n"
      "launch\n"
      "write dom=3 slot=11 val=3\n"
      "destroy dom=3\n"
      "clone dom=0 n=1\n"
      "write dom=0 slot=2 val=2\n"
      "advance ns=5000\n"
      "devio dom=2 key=3 val=7\n"
      "launch\n"
      "write dom=4 slot=5 val=1\n"
      "advance ns=2500\n");

  const RunOptions options = SeededBugOptions();
  RunResult failure = RunScenario(scenario, options);
  ASSERT_FALSE(failure.ok()) << "the seeded bug went undetected";
  EXPECT_EQ(failure.fail_kind, "cells");
  // Caught at the first advance op, not at the end of the run.
  EXPECT_EQ(failure.fail_op, 2u);

  auto shrunk = Shrink<DstVocabulary>(scenario, failure, options);
  EXPECT_FALSE(shrunk.result.ok());
  EXPECT_EQ(shrunk.result.fail_kind, failure.fail_kind);
  EXPECT_LE(shrunk.input.ops.size(), 12u);
  // The true minimum: one guest plus the op that triggers the rogue write.
  EXPECT_EQ(shrunk.input.ops.size(), 2u)
      << "not fully minimised:\n"
      << shrunk.input.ToText();
  // The minimised scenario still fails when replayed from its text form.
  Scenario reparsed = MustParse(shrunk.input.ToText());
  RunResult replay = RunScenario(reparsed, options);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.fail_kind, failure.fail_kind);
}

// A clean system run under the same scenario (no seeded bug) passes — the
// failure above is the bug, not the harness.
TEST(DstShrinkTest, SameScenarioPassesWithoutTheSeededBug) {
  Scenario scenario = MustParse(
      "seed 77\n"
      "launch\n"
      "write dom=0 slot=3 val=9\n"
      "advance ns=1000\n"
      "clone dom=0 n=2\n"
      "reset dom=1\n"
      "advance ns=2500\n");
  RunResult result = RunScenario(scenario);
  EXPECT_TRUE(result.ok()) << result.fail_kind << ": " << result.message;
}

}  // namespace
}  // namespace nephele
