// Determinism golden tests for the parallel clone engine: the observable
// result of a clone batch — guest memory contents, p2m layout, metrics
// export, trace spans, child ids and virtual time — must be byte-identical
// at every worker-thread count. Only host wall-clock time may change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

constexpr std::uint8_t kStamp[16] = {0xde, 0xad, 0xbe, 0xef, 9, 8, 7, 6,
                                     5,    4,    3,    2,    1, 0, 1, 2};

// FNV-1a over everything fed in; collision-resistant enough for a golden
// comparison where a mismatch means a real divergence.
class Digest {
 public:
  void Add(const void* bytes, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void AddValue(T v) {
    Add(&v, sizeof(v));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Full observable machine state: every domain's p2m (mfn, role, writability)
// plus the bytes of every mapped frame, in domain/gfn order.
std::uint64_t MemoryDigest(NepheleSystem& sys) {
  Digest d;
  std::uint8_t page[kPageSize];
  for (DomId id : sys.hypervisor().DomainIds()) {
    const Domain* dom = sys.hypervisor().FindDomain(id);
    d.AddValue(id);
    d.AddValue(dom->parent);
    d.AddValue(dom->family_root);
    d.AddValue(dom->vcpus.empty() ? std::uint64_t{0} : dom->vcpus[0].rax);
    for (Gfn gfn = 0; gfn < dom->p2m.size(); ++gfn) {
      const P2mEntry& e = dom->p2m[gfn];
      d.AddValue(gfn);
      d.AddValue(e.mfn);
      d.AddValue(static_cast<int>(e.role));
      d.AddValue(e.writable);
      if (e.mfn != kInvalidMfn) {
        sys.hypervisor().frames().ReadBytes(e.mfn, 0, page, kPageSize);
        d.Add(page, kPageSize);
      }
    }
  }
  d.AddValue(sys.hypervisor().FreePoolFrames());
  return d.value();
}

struct RunResult {
  std::vector<DomId> children;
  std::uint64_t memory = 0;
  std::string metrics;
  std::string trace;
  std::int64_t now_ns = 0;
};

// One fixed workload: boot a parent, stamp a few data pages, clone a batch,
// settle the second stage, then COW-write inside one child.
RunResult RunWorkload(unsigned threads, unsigned batch) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  cfg.clone_worker_threads = threads;
  NepheleSystem sys(cfg);

  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 128;
  dcfg.with_vif = true;
  auto parent = sys.toolstack().CreateDomain(dcfg);
  EXPECT_TRUE(parent.ok());
  sys.Settle();

  const Gfn first_data = static_cast<Gfn>(dcfg.image_text_pages);
  for (Gfn i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        sys.hypervisor().WriteGuestPage(*parent, first_data + i, 0, kStamp, sizeof(kStamp)).ok());
  }

  const Domain* p = sys.hypervisor().FindDomain(*parent);
  auto children =
      sys.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, batch});
  EXPECT_TRUE(children.ok()) << children.status().ToString();
  sys.Settle();

  RunResult r;
  if (children.ok()) {
    r.children = *children;
    if (!r.children.empty()) {
      EXPECT_TRUE(sys.hypervisor()
                      .WriteGuestPage(r.children.front(), first_data, 0, kStamp, sizeof(kStamp))
                      .ok());
    }
  }
  ExpectFrameConsistency(sys);
  r.memory = MemoryDigest(sys);
  r.metrics = sys.metrics().ExportJson();
  r.trace = sys.trace().ExportJson();
  r.now_ns = sys.Now().ns();
  return r;
}

class ParallelCloneDeterminism : public ::testing::TestWithParam<unsigned> {};

// The golden test: batches of 1, 8 and 64 children at 2, 4 and 8 worker
// threads reproduce the serial run bit for bit — same guest memory, same
// p2m, same metrics export, same trace-span sequence, same virtual time.
TEST_P(ParallelCloneDeterminism, ByteIdenticalToSerial) {
  const unsigned batch = GetParam();
  const RunResult serial = RunWorkload(1, batch);
  ASSERT_EQ(serial.children.size(), batch);
  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunResult parallel = RunWorkload(threads, batch);
    EXPECT_EQ(parallel.children, serial.children);
    EXPECT_EQ(parallel.memory, serial.memory) << "guest memory diverged";
    EXPECT_EQ(parallel.metrics, serial.metrics) << "metrics export diverged";
    EXPECT_EQ(parallel.trace, serial.trace) << "trace spans diverged";
    EXPECT_EQ(parallel.now_ns, serial.now_ns) << "virtual time diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, ParallelCloneDeterminism,
                         ::testing::Values(1u, 8u, 64u));

// Planning a child allocates its frames, and so builds their records, while
// pool workers copy pages into earlier children's frames. On a fresh host
// the pool has released nothing, so every frame of the batch is one never
// handed out before: records are built past the high-water mark throughout
// staging. The copies must come out as the serial engine's, and the table
// exact. The TSan build runs this on four workers.
TEST(ParallelClone, ChildrenOnNeverUsedFramesStageLikeSerial) {
  auto run = [](unsigned threads) {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;
    cfg.clone_worker_threads = threads;
    NepheleSystem sys(cfg);
    DomainConfig dcfg;
    dcfg.name = "parent";
    dcfg.memory_mb = 4;
    dcfg.max_clones = 64;
    dcfg.with_vif = true;
    auto parent = sys.toolstack().CreateDomain(dcfg);
    EXPECT_TRUE(parent.ok());
    sys.Settle();
    const Domain* p = sys.hypervisor().FindDomain(*parent);
    // Stamp every private page, so staging copies real bytes.
    for (Gfn gfn = 0; gfn < p->p2m.size(); ++gfn) {
      if (IsPrivateRole(p->p2m[gfn].role)) {
        EXPECT_TRUE(
            sys.hypervisor().WriteGuestPage(*parent, gfn, 64, kStamp, sizeof(kStamp)).ok());
      }
    }
    const FrameTable& frames = sys.hypervisor().frames();
    // Nothing released so far: the allocated frames are exactly mfns
    // [0, high), and every later Alloc hands out a never-used mfn.
    const Mfn high = static_cast<Mfn>(frames.allocated_frames());
    for (Mfn m = 0; m < high; ++m) {
      EXPECT_TRUE(frames.info(m).allocated) << "mfn " << m;
    }
    auto children =
        sys.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, 32});
    EXPECT_TRUE(children.ok()) << children.status().ToString();
    if (children.ok()) {
      for (DomId child : *children) {
        for (const P2mEntry& e : sys.hypervisor().FindDomain(child)->p2m) {
          if (IsPrivateRole(e.role)) {
            EXPECT_GE(e.mfn, high);
            std::uint8_t copy[sizeof(kStamp)] = {};
            frames.ReadBytes(e.mfn, 64, copy, sizeof(copy));
            EXPECT_EQ(std::memcmp(copy, kStamp, sizeof(kStamp)), 0) << "mfn " << e.mfn;
          }
        }
      }
    }
    ExpectFrameConsistency(sys);
    sys.Settle();
    ExpectFrameConsistency(sys);
    return MemoryDigest(sys);
  };
  EXPECT_EQ(run(4), run(1));
}

// Repeating the identical workload at the same thread count reproduces
// itself — the baseline the cross-thread comparison relies on.
TEST(ParallelClone, RunsAreReproducibleAtFixedThreadCount) {
  const RunResult a = RunWorkload(4, 8);
  const RunResult b = RunWorkload(4, 8);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

// Virtual time charges the batch's critical path: a batch of four costs its
// slowest child (the first, which pays the first-share rate), exactly what a
// single clone of the same parent costs — not four times it.
TEST(ParallelClone, VirtualTimeIsCriticalPathNotSum) {
  auto stage1_ns = [](unsigned batch) {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 256 * 1024;
    cfg.clone_worker_threads = 4;
    NepheleSystem sys(cfg);
    DomainConfig dcfg;
    dcfg.name = "parent";
    dcfg.memory_mb = 4;
    dcfg.max_clones = 16;
    auto parent = sys.toolstack().CreateDomain(dcfg);
    EXPECT_TRUE(parent.ok());
    sys.Settle();
    const Domain* p = sys.hypervisor().FindDomain(*parent);
    SimTime before = sys.Now();
    auto children =
        sys.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, batch});
    EXPECT_TRUE(children.ok());
    std::int64_t ns = (sys.Now() - before).ns();
    sys.Settle();
    return ns;
  };
  const std::int64_t one = stage1_ns(1);
  const std::int64_t four = stage1_ns(4);
  EXPECT_GT(one, 0);
  EXPECT_EQ(four, one);
}

// The knob itself: engine getter/setter (with clamping) and the
// construction-time config.
TEST(ParallelClone, WorkerThreadKnob) {
  NepheleSystem sys;
  EXPECT_EQ(sys.clone_engine().worker_threads(), 1u);
  sys.clone_engine().SetWorkerThreads(4);
  EXPECT_EQ(sys.clone_engine().worker_threads(), 4u);
  sys.clone_engine().SetWorkerThreads(0);  // clamped: 0 means serial
  EXPECT_EQ(sys.clone_engine().worker_threads(), 1u);

  SystemConfig cfg;
  cfg.clone_worker_threads = 6;
  NepheleSystem configured(cfg);
  EXPECT_EQ(configured.clone_engine().worker_threads(), 6u);
}

// Reconfiguring the thread count mid-life keeps results identical — the
// pool is torn down and rebuilt transparently on the next batch.
TEST(ParallelClone, ReconfiguringThreadsBetweenBatchesIsTransparent) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  NepheleSystem sys(cfg);
  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 64;
  auto parent = sys.toolstack().CreateDomain(dcfg);
  ASSERT_TRUE(parent.ok());
  sys.Settle();
  const Domain* p = sys.hypervisor().FindDomain(*parent);
  Mfn si = p->p2m[p->start_info_gfn].mfn;
  for (unsigned threads : {1u, 3u, 8u, 2u}) {
    sys.clone_engine().SetWorkerThreads(threads);
    auto children = sys.clone_engine().Clone({*parent, *parent, si, 4});
    ASSERT_TRUE(children.ok()) << children.status().ToString();
    sys.Settle();
    ExpectFrameConsistency(sys);
  }
  EXPECT_EQ(sys.metrics().CounterValue("clone/clones_total"), 16u);
}

}  // namespace
}  // namespace nephele
