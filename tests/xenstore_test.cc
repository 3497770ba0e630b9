#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/xenstore/path.h"
#include "src/xenstore/store.h"

namespace nephele {
namespace {

TEST(XsPath, SplitAndJoin) {
  EXPECT_EQ(SplitXsPath("/local/domain/3"),
            (std::vector<std::string>{"local", "domain", "3"}));
  EXPECT_EQ(SplitXsPath("a//b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitXsPath("/").empty());
  EXPECT_EQ(JoinXsPath({"a", "b"}), "/a/b");
  EXPECT_EQ(JoinXsPath({}), "/");
}

TEST(XsPath, PrefixMatching) {
  EXPECT_TRUE(XsPathHasPrefix("/a/b/c", "/a/b"));
  EXPECT_TRUE(XsPathHasPrefix("/a/b", "/a/b"));
  EXPECT_FALSE(XsPathHasPrefix("/a/bc", "/a/b"));
  EXPECT_TRUE(XsPathHasPrefix("/anything", "/"));
}

TEST(XsPath, CanonicalPaths) {
  EXPECT_EQ(XsDomainPath(7), "/local/domain/7");
  EXPECT_EQ(XsBackendPath(0, "vif", 7, 0), "/local/domain/0/backend/vif/7/0");
  EXPECT_EQ(XsFrontendPath(7, "vif", 0), "/local/domain/7/device/vif/0");
}

class XenstoreTest : public ::testing::Test {
 protected:
  XenstoreTest() : xs_(loop_, DefaultCostModel(), {metrics_, trace_, faults_}) {}
  std::uint64_t Count(std::string_view name) const { return metrics_.CounterValue(name); }
  EventLoop loop_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{loop_};
  FaultInjector faults_{metrics_};
  XenstoreDaemon xs_;
};

TEST_F(XenstoreTest, WriteReadRoundTrip) {
  ASSERT_TRUE(xs_.Write("/a/b", "value").ok());
  auto v = xs_.Read("/a/b");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value");
}

TEST_F(XenstoreTest, ReadMissingFails) {
  EXPECT_EQ(xs_.Read("/nope").status().code(), StatusCode::kNotFound);
  // Intermediate nodes created by a write have no value of their own.
  ASSERT_TRUE(xs_.Write("/a/b", "v").ok());
  EXPECT_EQ(xs_.Read("/a").status().code(), StatusCode::kNotFound);
}

TEST_F(XenstoreTest, OverwriteKeepsEntryCount) {
  ASSERT_TRUE(xs_.Write("/k", "1").ok());
  std::size_t entries = xs_.NumEntries();
  ASSERT_TRUE(xs_.Write("/k", "2").ok());
  EXPECT_EQ(xs_.NumEntries(), entries);
  EXPECT_EQ(*xs_.Read("/k"), "2");
}

TEST_F(XenstoreTest, DirectoryLists) {
  ASSERT_TRUE(xs_.Write("/d/x", "1").ok());
  ASSERT_TRUE(xs_.Write("/d/y", "2").ok());
  auto names = xs_.Directory("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"x", "y"}));
}

TEST_F(XenstoreTest, RmRemovesSubtree) {
  ASSERT_TRUE(xs_.Write("/d/x/deep", "1").ok());
  ASSERT_TRUE(xs_.Write("/d/y", "2").ok());
  std::size_t entries = xs_.NumEntries();
  ASSERT_TRUE(xs_.Rm("/d/x").ok());
  EXPECT_FALSE(xs_.Exists("/d/x"));
  EXPECT_TRUE(xs_.Exists("/d/y"));
  EXPECT_EQ(xs_.NumEntries(), entries - 1);
  EXPECT_EQ(xs_.Rm("/d/x").code(), StatusCode::kNotFound);
}

// ApproxMemoryBytes counts every node's overhead, name and value, so a
// removal returns exactly what the writes that built the subtree added.
TEST_F(XenstoreTest, RmReturnsEveryByteTheSubtreeAdded) {
  ASSERT_TRUE(xs_.Write("/keep", "1").ok());
  const std::size_t before = xs_.ApproxMemoryBytes();
  ASSERT_TRUE(xs_.Write("/a/bb/ccc", "value").ok());
  ASSERT_TRUE(xs_.Mkdir("/a/dddd").ok());
  EXPECT_GT(xs_.ApproxMemoryBytes(), before);
  ASSERT_TRUE(xs_.Rm("/a").ok());
  EXPECT_EQ(xs_.ApproxMemoryBytes(), before);
}

TEST_F(XenstoreTest, WriteResizesTheValueBytes) {
  ASSERT_TRUE(xs_.Write("/k", "short").ok());
  const std::size_t short_bytes = xs_.ApproxMemoryBytes();
  ASSERT_TRUE(xs_.Write("/k", "a longer value").ok());
  EXPECT_EQ(xs_.ApproxMemoryBytes(), short_bytes + 9);
  ASSERT_TRUE(xs_.Write("/k", "short").ok());
  EXPECT_EQ(xs_.ApproxMemoryBytes(), short_bytes);
  ASSERT_TRUE(xs_.Rm("/k").ok());
  EXPECT_EQ(xs_.ApproxMemoryBytes(), 0u);
}

TEST_F(XenstoreTest, WatchFiresOnSubtreeChange) {
  std::vector<std::string> fired;
  ASSERT_TRUE(xs_.Watch("/w", "tok", "owner1",
                        [&](const std::string& path, const std::string& token) {
                          fired.push_back(token + ":" + path);
                        })
                  .ok());
  ASSERT_TRUE(xs_.Write("/w/a", "1").ok());
  ASSERT_TRUE(xs_.Write("/other", "1").ok());
  loop_.Run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], "tok:/w/a");
}

TEST_F(XenstoreTest, WatchFiresOnRemoval) {
  int fired = 0;
  ASSERT_TRUE(xs_.Write("/w/a", "1").ok());
  ASSERT_TRUE(
      xs_.Watch("/w", "t", "o", [&](const std::string&, const std::string&) { ++fired; }).ok());
  ASSERT_TRUE(xs_.Rm("/w/a").ok());
  loop_.Run();
  EXPECT_EQ(fired, 1);
}

TEST_F(XenstoreTest, UnwatchStopsDelivery) {
  int fired = 0;
  ASSERT_TRUE(
      xs_.Watch("/w", "t", "o", [&](const std::string&, const std::string&) { ++fired; }).ok());
  ASSERT_TRUE(xs_.Unwatch("/w", "t").ok());
  ASSERT_TRUE(xs_.Write("/w/a", "1").ok());
  loop_.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(xs_.Unwatch("/w", "t").code(), StatusCode::kNotFound);
}

TEST_F(XenstoreTest, RemoveWatchesByOwner) {
  int fired = 0;
  ASSERT_TRUE(
      xs_.Watch("/w", "t1", "own", [&](const std::string&, const std::string&) { ++fired; })
          .ok());
  ASSERT_TRUE(
      xs_.Watch("/w", "t2", "own", [&](const std::string&, const std::string&) { ++fired; })
          .ok());
  xs_.RemoveWatchesOwnedBy("own");
  ASSERT_TRUE(xs_.Write("/w/a", "1").ok());
  loop_.Run();
  EXPECT_EQ(fired, 0);
}

TEST_F(XenstoreTest, DomainIntroduction) {
  EXPECT_FALSE(xs_.DomainKnown(5));
  ASSERT_TRUE(xs_.IntroduceDomain(5).ok());
  EXPECT_TRUE(xs_.DomainKnown(5));
  EXPECT_EQ(xs_.IntroduceDomain(5).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(xs_.ReleaseDomain(5).ok());
  EXPECT_FALSE(xs_.DomainKnown(5));
}

TEST_F(XenstoreTest, RequestsChargeTimeProportionalToStoreSize) {
  ASSERT_TRUE(xs_.Write("/seed", "x").ok());
  SimTime t0 = loop_.Now();
  ASSERT_TRUE(xs_.Write("/a", "1").ok());
  SimDuration small_store = loop_.Now() - t0;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(xs_.Write("/bulk/" + std::to_string(i), "v").ok());
  }
  SimTime t1 = loop_.Now();
  ASSERT_TRUE(xs_.Write("/b", "1").ok());
  SimDuration big_store = loop_.Now() - t1;
  EXPECT_GT(big_store, small_store);
}

TEST_F(XenstoreTest, AccessLogRotationChargesSpike) {
  CostModel costs;
  costs.xs_log_rotate_every = 10;
  costs.xs_log_rotate = SimDuration::Millis(100);
  EventLoop loop;
  MetricsRegistry metrics;
  TraceRecorder trace(loop);
  FaultInjector faults(metrics);
  XenstoreDaemon xs(loop, costs, {metrics, trace, faults});
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(xs.Write("/k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(metrics.CounterValue("xenstore/log/rotations"), 0u);
  SimTime before = loop.Now();
  ASSERT_TRUE(xs.Write("/trip", "v").ok());
  EXPECT_EQ(metrics.CounterValue("xenstore/log/rotations"), 1u);
  EXPECT_GT((loop.Now() - before).ToMillis(), 99.0);
}

TEST_F(XenstoreTest, DisablingAccessLogPreventsRotations) {
  CostModel costs;
  costs.xs_log_rotate_every = 5;
  EventLoop loop;
  MetricsRegistry metrics;
  TraceRecorder trace(loop);
  FaultInjector faults(metrics);
  XenstoreDaemon xs(loop, costs, {metrics, trace, faults});
  xs.SetAccessLogEnabled(false);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(xs.Write("/k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(metrics.CounterValue("xenstore/log/rotations"), 0u);
}

TEST_F(XenstoreTest, StatsCountRequestKinds) {
  (void)xs_.Write("/a", "1");
  (void)xs_.Read("/a");
  (void)xs_.Directory("/");
  EXPECT_EQ(Count("xenstore/requests/write"), 1u);
  EXPECT_EQ(Count("xenstore/requests/read"), 1u);
  EXPECT_EQ(Count("xenstore/requests/directory"), 1u);
  EXPECT_EQ(Count("xenstore/requests/total"), 3u);
}

// --- xs_clone ---

// A store with a loop and services of its own.
struct StandaloneStore {
  EventLoop loop;
  MetricsRegistry metrics;
  TraceRecorder trace{loop};
  FaultInjector faults{metrics};
  XenstoreDaemon xs{loop, DefaultCostModel(), {metrics, trace, faults}};
};

class XsCloneTest : public XenstoreTest {
 protected:
  static void SeedDomain(XenstoreDaemon& xs, DomId p) {
    const std::string dp = XsDomainPath(p);
    ASSERT_TRUE(xs.Write(dp + "/name", "guest").ok());
    ASSERT_TRUE(xs.Write(dp + "/domid", std::to_string(p)).ok());
    ASSERT_TRUE(xs.Write(dp + "/console/ring-ref", "17").ok());
    ASSERT_TRUE(xs.Write(dp + "/device/vif/0/backend", XsBackendPath(0, "vif", p, 0)).ok());
    ASSERT_TRUE(xs.Write(dp + "/device/vif/0/state", "4").ok());
    ASSERT_TRUE(
        xs.Write(XsBackendPath(0, "vif", p, 0) + "/frontend", XsFrontendPath(p, "vif", 0)).ok());
    ASSERT_TRUE(
        xs.Write(XsBackendPath(0, "vif", p, 0) + "/frontend-id", std::to_string(p)).ok());
    ASSERT_TRUE(xs.IntroduceDomain(p).ok());
  }

  void SeedParentDomain(DomId p) { SeedDomain(xs_, p); }
};

TEST_F(XsCloneTest, RequiresIntroducedChild) {
  SeedParentDomain(7);
  EXPECT_EQ(xs_.XsClone(7, 8, XsCloneOp::kDevVif, XsDomainPath(7), XsDomainPath(8)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(XsCloneTest, ClonesWholeDirectoryAsOneRequest) {
  SeedParentDomain(7);
  ASSERT_TRUE(xs_.IntroduceDomain(8, 7).ok());
  std::uint64_t before = Count("xenstore/requests/total");
  ASSERT_TRUE(
      xs_.XsClone(7, 8, XsCloneOp::kDevVif, XsDomainPath(7), XsDomainPath(8)).ok());
  EXPECT_EQ(Count("xenstore/requests/total"), before + 1);  // ONE request, many entries
  EXPECT_EQ(Count("xenstore/requests/xs_clone"), 1u);
  EXPECT_EQ(*xs_.Read(XsDomainPath(8) + "/name"), "guest");
  EXPECT_EQ(*xs_.Read(XsDomainPath(8) + "/console/ring-ref"), "17");
}

TEST_F(XsCloneTest, DeviceHeuristicRewritesDomids) {
  SeedParentDomain(7);
  ASSERT_TRUE(xs_.IntroduceDomain(8, 7).ok());
  ASSERT_TRUE(
      xs_.XsClone(7, 8, XsCloneOp::kDevVif, XsDomainPath(7), XsDomainPath(8)).ok());
  // Whole-value domid rewritten.
  EXPECT_EQ(*xs_.Read(XsDomainPath(8) + "/domid"), "8");
  // Path fragment rewritten: .../vif/7/0 -> .../vif/8/0.
  EXPECT_EQ(*xs_.Read(XsDomainPath(8) + "/device/vif/0/backend"),
            XsBackendPath(0, "vif", 8, 0));
}

TEST_F(XsCloneTest, BackendCloneRewritesFrontendReferences) {
  SeedParentDomain(7);
  ASSERT_TRUE(xs_.IntroduceDomain(8, 7).ok());
  ASSERT_TRUE(xs_.XsClone(7, 8, XsCloneOp::kDevVif, XsBackendPath(0, "vif", 7, 0),
                          XsBackendPath(0, "vif", 8, 0))
                  .ok());
  EXPECT_EQ(*xs_.Read(XsBackendPath(0, "vif", 8, 0) + "/frontend-id"), "8");
  // Trailing /domain/7 reference rewritten.
  EXPECT_EQ(*xs_.Read(XsBackendPath(0, "vif", 8, 0) + "/frontend"),
            XsFrontendPath(8, "vif", 0));
}

TEST_F(XsCloneTest, BasicOpCopiesWithoutRewriting) {
  SeedParentDomain(7);
  ASSERT_TRUE(xs_.IntroduceDomain(8, 7).ok());
  ASSERT_TRUE(xs_.XsClone(7, 8, XsCloneOp::kBasic, XsDomainPath(7), XsDomainPath(8)).ok());
  EXPECT_EQ(*xs_.Read(XsDomainPath(8) + "/domid"), "7");  // untouched
}

TEST_F(XsCloneTest, FiresWatchOnCloneRoot) {
  SeedParentDomain(7);
  ASSERT_TRUE(xs_.IntroduceDomain(8, 7).ok());
  int fired = 0;
  ASSERT_TRUE(xs_.Watch(XsDomainPath(8), "t", "o",
                        [&](const std::string&, const std::string&) { ++fired; })
                  .ok());
  ASSERT_TRUE(
      xs_.XsClone(7, 8, XsCloneOp::kDevVif, XsDomainPath(7), XsDomainPath(8)).ok());
  loop_.Run();
  EXPECT_EQ(fired, 1);
}

// xs_clone accounts its nodes exactly like the client writes it replaces:
// entries and bytes equal those of a store that wrote the same rewritten
// values by path, into a fresh destination and into one that already holds
// some of the nodes with other values, and removing the clone root gives
// every entry and byte back.
TEST_F(XsCloneTest, AccountsLikeTheWritesItReplaces) {
  const std::string dst = XsDomainPath(8);
  // What xs_clone of domain 7's directory writes under domain 8 (kDevVif).
  const std::vector<std::pair<std::string, std::string>> rewritten = {
      {dst + "/name", "guest"},
      {dst + "/domid", "8"},
      {dst + "/console/ring-ref", "17"},
      {dst + "/device/vif/0/backend", XsBackendPath(0, "vif", 8, 0)},
      {dst + "/device/vif/0/state", "4"},
  };
  // An occupied destination: two nodes the clone overwrites with values of
  // another size, and one it leaves alone.
  const std::vector<std::pair<std::string, std::string>> occupants = {
      {dst + "/domid", "12345"},
      {dst + "/device/vif/0/state", "1"},
      {dst + "/extra", "kept"},
  };
  for (bool occupied : {false, true}) {
    SCOPED_TRACE(occupied ? "occupied destination" : "fresh destination");
    StandaloneStore cloned;
    StandaloneStore written;
    for (StandaloneStore* s : {&cloned, &written}) {
      SeedDomain(s->xs, 7);
      ASSERT_TRUE(s->xs.IntroduceDomain(8, 7).ok());
    }
    const std::size_t entries_before = cloned.xs.NumEntries();
    const std::size_t bytes_before = cloned.xs.ApproxMemoryBytes();
    if (occupied) {
      for (StandaloneStore* s : {&cloned, &written}) {
        for (const auto& [path, value] : occupants) {
          ASSERT_TRUE(s->xs.Write(path, value).ok());
        }
      }
    }

    ASSERT_TRUE(cloned.xs.XsClone(7, 8, XsCloneOp::kDevVif, XsDomainPath(7), dst).ok());
    for (const auto& [path, value] : rewritten) {
      ASSERT_TRUE(written.xs.Write(path, value).ok());
      const std::string* got = cloned.xs.PeekValue(path);
      ASSERT_NE(got, nullptr) << path;
      EXPECT_EQ(*got, value) << path;
    }
    if (occupied) {
      ASSERT_NE(cloned.xs.PeekValue(dst + "/extra"), nullptr);
      EXPECT_EQ(*cloned.xs.PeekValue(dst + "/extra"), "kept");
    }
    EXPECT_EQ(cloned.xs.NumEntries(), written.xs.NumEntries());
    EXPECT_EQ(cloned.xs.ApproxMemoryBytes(), written.xs.ApproxMemoryBytes());

    ASSERT_TRUE(cloned.xs.Rm(dst).ok());
    EXPECT_EQ(cloned.xs.NumEntries(), entries_before);
    EXPECT_EQ(cloned.xs.ApproxMemoryBytes(), bytes_before);
  }
}

TEST_F(XsCloneTest, MissingParentPathFails) {
  ASSERT_TRUE(xs_.IntroduceDomain(8).ok());
  EXPECT_EQ(xs_.XsClone(7, 8, XsCloneOp::kBasic, "/nope", "/dst").code(),
            StatusCode::kNotFound);
}

// Property (DESIGN.md invariant 5): for every device heuristic, xs_clone
// equals a deep copy followed by domid rewriting.
class XsCloneEquivalence : public ::testing::TestWithParam<XsCloneOp> {};

TEST_P(XsCloneEquivalence, MatchesRewrittenDeepCopy) {
  StandaloneStore store;
  XenstoreDaemon& xs = store.xs;
  const DomId p = 11, c = 12;
  const std::string dp = XsDomainPath(p);
  ASSERT_TRUE(xs.Write(dp + "/domid", std::to_string(p)).ok());
  ASSERT_TRUE(xs.Write(dp + "/ref", "/x/" + std::to_string(p) + "/y").ok());
  ASSERT_TRUE(xs.Write(dp + "/plain", "unrelated-11-ish").ok());
  ASSERT_TRUE(xs.IntroduceDomain(p).ok());
  ASSERT_TRUE(xs.IntroduceDomain(c, p).ok());
  ASSERT_TRUE(xs.XsClone(p, c, GetParam(), dp, XsDomainPath(c)).ok());

  bool rewrite = GetParam() != XsCloneOp::kBasic;
  EXPECT_EQ(*xs.Read(XsDomainPath(c) + "/domid"), rewrite ? "12" : "11");
  EXPECT_EQ(*xs.Read(XsDomainPath(c) + "/ref"), rewrite ? "/x/12/y" : "/x/11/y");
  // Values merely containing the digits are never rewritten.
  EXPECT_EQ(*xs.Read(XsDomainPath(c) + "/plain"), "unrelated-11-ish");
}

INSTANTIATE_TEST_SUITE_P(AllOps, XsCloneEquivalence,
                         ::testing::Values(XsCloneOp::kBasic, XsCloneOp::kDevConsole,
                                           XsCloneOp::kDevVif, XsCloneOp::kDev9pfs));

}  // namespace
}  // namespace nephele
