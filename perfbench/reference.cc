// A fixed unit of host work that does not depend on the simulator. Host
// throughput is reported per run of it, so that a host that runs slower for
// a while, as a shared VM does, slows the unit and the simulator alike.

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

constexpr std::size_t kTableWords = kReferenceTableMib * 1024 * 1024 / sizeof(std::uint32_t);
constexpr int kSteps = 60000;

volatile std::uint64_t g_sink = 0;

}  // namespace

double ReferenceWorkS() {
  // Allocated and touched on the first call, then kept.
  static std::vector<std::uint32_t> table(kTableWords, 1);
  const auto start = std::chrono::steady_clock::now();
  std::mt19937_64 gen(0x5eed);
  std::map<std::uint32_t, std::uint64_t> live;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> events;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    const std::uint64_t r = gen();
    // Event-queue churn, as in EventLoop.
    events.push(r >> 16);
    if (events.size() > 4096) {
      acc += events.top();
      events.pop();
    }
    // Node allocation and pointer chasing, as in the registries and ledgers.
    auto [it, inserted] = live.try_emplace(static_cast<std::uint32_t>(r & 0xffff), r);
    if (!inserted) {
      acc ^= it->second;
      live.erase(it);
    }
    // Random access to a table past the cache, as in the frame tables.
    std::uint32_t& word = table[(r >> 20) % kTableWords];
    word += static_cast<std::uint32_t>(i);
    acc += word;
  }
  g_sink = g_sink + acc + live.size();
  return ElapsedS(start);
}

}  // namespace perfbench
