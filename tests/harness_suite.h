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
//
// Digest dump: with NEPHELE_DST_DIGEST_DUMP=<file> set, every corpus
// replay, stable-digest run (at 1 and 4 workers) and generated round
// appends one tab-separated line to <file>: vocabulary, input label,
// workers (0: the input's own), verdict, fail op, and the hashes of the
// coverage edges, the op log and the digest's metrics, trace and simtime
// lines. ctest runs tests in parallel, so compare two builds' dumps sorted:
//   sort a.txt | diff - <(sort b.txt)

#ifndef TESTS_HARNESS_SUITE_H_
#define TESTS_HARNESS_SUITE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/dst/harness.h"

namespace nephele {

// Appends `result`'s dump line when NEPHELE_DST_DIGEST_DUMP names a file.
template <typename S>
void DumpRun(const std::string& label, unsigned workers, const RunResult& result) {
  const char* path = std::getenv("NEPHELE_DST_DIGEST_DUMP");
  if (path == nullptr || *path == '\0') {
    return;
  }
  std::string op_log;
  std::string metrics = "-";
  std::string trace = "-";
  std::string simtime = "-";
  std::istringstream lines(result.digest);
  for (std::string line; std::getline(lines, line);) {
    const std::string hash = std::to_string(Hash64(line));
    if (line.rfind("metrics ", 0) == 0) {
      metrics = hash;
    } else if (line.rfind("trace ", 0) == 0) {
      trace = hash;
    } else if (line.rfind("simtime ", 0) == 0) {
      simtime = hash;
    } else {
      op_log += line + '\n';
    }
  }
  const std::string_view edges(reinterpret_cast<const char*>(result.edges.data()),
                               result.edges.size() * sizeof(result.edges[0]));
  std::ofstream(path, std::ios::app)
      << S::kName << '\t' << label << "\tworkers=" << workers
      << "\tverdict=" << (result.ok() ? "ok" : result.fail_kind)
      << "\tfail_op=" << (result.ok() ? "-" : std::to_string(result.fail_op))
      << "\tedges=" << Hash64(edges) << "\tlog=" << Hash64(op_log) << "\tmetrics=" << metrics
      << "\ttrace=" << trace << "\tsimtime=" << simtime << '\n';
}

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
  const RunResult parallel = S::Run(input, four);
  DumpRun<S>(label, 1, first);
  DumpRun<S>(label, 4, parallel);
  EXPECT_TRUE(first.ok()) << label << " failed " << first.fail_kind << ": " << first.message;
  EXPECT_EQ(first.digest, S::Run(input, one).digest) << label << ": rerun diverged";
  EXPECT_EQ(first.digest, parallel.digest) << label << ": worker count leaked into the digest";
  return first;
}

template <typename S>
void CorpusReplaysOracleClean() {
  const auto corpus = LoadCorpus<S>();
  EXPECT_GE(corpus.size(), 8u) << "shrunk corpus went missing from " << S::kCorpusDir;
  for (const auto& [name, input] : corpus) {
    RunResult r = S::Run(input, {});
    DumpRun<S>(name, 0, r);
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
      DumpRun<S>("seed " + std::to_string(seed) + " round " + std::to_string(i), 0, r);
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
      SCOPED_TRACE(S::ToText(input));
      fuzzer.Report(ExpectStableDigest<S>(
          input, "stable seed " + std::to_string(seed) + " input " + std::to_string(i)));
    }
  }
  // The pure fallback stream: an empty tape decodes at every seed.
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    ExpectStableDigest<S>(S::FromBytes(seed, {}), "empty tape, seed " + std::to_string(seed));
  }
}

}  // namespace nephele

#endif  // TESTS_HARNESS_SUITE_H_
