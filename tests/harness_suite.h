// The simulation-test suite both op vocabularies share: corpus replay,
// digest determinism across reruns and clone-worker counts, and
// coverage-guided generation with the full oracle after every op.
//
// The bodies are templates over a suite type S: a vocabulary
// (src/dst/harness.h) plus its test data —
//   kCorpusDir, kCorpusExt   where the shrunk corpus lives;
//   Parse, ToText            the text codec;
//   Rounds()                 how many fresh inputs to generate.
// dst_test.cc and hvfuzz_test.cc instantiate them under their own test
// names, so `ctest -L dst` and `ctest -L hvfuzz` each run the whole suite
// for their vocabulary.

#ifndef TESTS_HARNESS_SUITE_H_
#define TESTS_HARNESS_SUITE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/dst/harness.h"

namespace nephele {

template <typename S>
std::vector<std::pair<std::string, typename S::Input>> LoadCorpus() {
  std::vector<std::pair<std::string, typename S::Input>> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(S::kCorpusDir)) {
    if (entry.path().extension() != S::kCorpusExt) {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto input = S::Parse(text.str());
    EXPECT_TRUE(input.ok()) << entry.path() << ": " << input.status().ToString();
    if (input.ok()) {
      corpus.emplace_back(entry.path().filename().string(), *std::move(input));
    }
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return corpus;
}

// Runs `input` twice at 1 clone worker and once at 4: it must pass, and all
// three digests must be byte-identical. Returns the first run.
template <typename S>
RunResult ExpectStableDigest(const typename S::Input& input, const std::string& label) {
  RunOptions one;
  one.force_workers = 1;
  RunOptions four;
  four.force_workers = 4;
  RunResult first = S::Run(input, one);
  EXPECT_TRUE(first.ok()) << label << " failed " << first.fail_kind << ": " << first.message;
  EXPECT_EQ(first.digest, S::Run(input, one).digest) << label << ": rerun diverged";
  EXPECT_EQ(first.digest, S::Run(input, four).digest)
      << label << ": worker count leaked into the digest";
  return first;
}

template <typename S>
void CorpusReplaysOracleClean() {
  const auto corpus = LoadCorpus<S>();
  EXPECT_GE(corpus.size(), 8u) << "shrunk corpus went missing from " << S::kCorpusDir;
  for (const auto& [name, input] : corpus) {
    RunResult r = S::Run(input, {});
    EXPECT_TRUE(r.ok()) << name << " failed oracle '" << r.fail_kind << "' at op " << r.fail_op
                        << ": " << r.message << "\ndigest:\n"
                        << r.digest;
    EXPECT_EQ(r.ops_executed, input.ops.size()) << name;
  }
}

template <typename S>
void CorpusDigestsAreStable() {
  for (const auto& [name, input] : LoadCorpus<S>()) {
    ExpectStableDigest<S>(input, name);
  }
}

template <typename S>
void GeneratedInputsSatisfyTheOracle() {
  const int rounds = S::Rounds();
  if (rounds <= 0) {
    GTEST_SKIP() << "zero rounds requested";
  }
  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
  const int per_seed = (rounds + 7) / 8;
  std::size_t executed = 0;
  for (std::uint64_t seed : kSeeds) {
    Fuzzer<S> fuzzer(seed);
    for (int i = 0; i < per_seed; ++i) {
      auto input = fuzzer.Next();
      RunResult r = S::Run(input, {});
      fuzzer.Report(r);
      ++executed;
      if (!r.ok()) {
        // A real finding: shrink it and print the minimal input so it can be
        // fixed and pinned into the corpus.
        ShrinkOutcome<S> shrunk = Shrink<S>(input, r);
        FAIL() << "seed " << seed << " round " << i << " violated oracle '" << r.fail_kind
               << "' at op " << r.fail_op << ": " << r.message << "\nminimal input ("
               << shrunk.input.ops.size() << " ops, " << shrunk.runs << " shrink runs):\n"
               << S::ToText(shrunk.input) << "\ndigest:\n"
               << shrunk.result.digest;
      }
    }
    EXPECT_GT(fuzzer.engine().edges_covered(), 0u);
    EXPECT_EQ(fuzzer.engine().executions(), static_cast<std::uint64_t>(per_seed));
    EXPECT_EQ(fuzzer.engine().crashes(), 0u);
  }
  EXPECT_GE(executed, static_cast<std::size_t>(rounds));
}

template <typename S>
void GeneratedDigestsAreStable() {
  for (std::uint64_t seed : {7ull, 1001ull, 424242ull}) {
    Fuzzer<S> fuzzer(seed);
    for (int i = 0; i < 4; ++i) {
      auto input = fuzzer.Next();
      fuzzer.Report(ExpectStableDigest<S>(input, S::ToText(input)));
    }
  }
  // The pure fallback stream: an empty tape decodes at every seed.
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    ExpectStableDigest<S>(S::FromBytes(seed, {}), "empty tape, seed " + std::to_string(seed));
  }
}

}  // namespace nephele

#endif  // TESTS_HARNESS_SUITE_H_
