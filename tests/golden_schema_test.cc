// Golden-file schema tests for the observability exports.
//
// A fixed workload (one guest, one clone batch, one COW write, one reset)
// runs against a fresh system; the resulting MetricsRegistry::ExportJson()
// and TraceRecorder::ExportJson() must match the committed golden files
// byte for byte. Any change to metric names, JSON shape, key ordering or
// span layout shows up as a diff here — intentional changes re-record with:
//
//   NEPHELE_UPDATE_GOLDEN=1 ./golden_schema_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/system.h"
#include "src/load/dispatch.h"
#include "src/load/load_gen.h"
#include "src/obs/tsdb/alarm.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/scheduler.h"
#include "src/toolstack/domain_config.h"

namespace nephele {
namespace {

#ifndef NEPHELE_GOLDEN_DIR
#define NEPHELE_GOLDEN_DIR "tests/golden"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(NEPHELE_GOLDEN_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("NEPHELE_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(NEPHELE_GOLDEN_DIR);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  ASSERT_TRUE(std::filesystem::exists(path))
      << "missing golden file " << path << "; record it with NEPHELE_UPDATE_GOLDEN=1";
  const std::string expected = ReadFile(path);
  EXPECT_EQ(actual, expected)
      << "export schema drifted from " << path
      << "; if intentional, re-record with NEPHELE_UPDATE_GOLDEN=1";
}

// The fixed workload both exports are recorded against.
void RunGoldenWorkload(NepheleSystem& sys) {
  DomainConfig cfg;
  cfg.name = "golden";
  cfg.max_clones = 8;
  auto parent = sys.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  sys.Settle();

  const Domain* d = sys.hypervisor().FindDomain(*parent);
  ASSERT_NE(d, nullptr);
  auto children =
      sys.clone_engine().Clone({*parent, *parent, d->p2m[d->start_info_gfn].mfn, 2});
  ASSERT_TRUE(children.ok());
  sys.Settle();

  const GuestMemoryLayout layout = ComputeGuestLayout(cfg);
  const std::uint8_t value = 7;
  ASSERT_TRUE(sys.hypervisor()
                  .WriteGuestPage(children->front(), static_cast<Gfn>(layout.heap_first_gfn),
                                  0, &value, 1)
                  .ok());
  ASSERT_TRUE(sys.clone_engine().CloneReset(kDom0, children->front()).ok());
  sys.Settle();
}

// The telemetry pipeline over the same workload: a collector ticking every
// simulated millisecond with the stock alarm rules, four ticks before the
// workload and four after, so the ring holds samples from both the idle and
// the post-clone regime.
struct TsdbExports {
  std::string tsdb;
  std::string alarms;
};

TsdbExports RunTsdbGoldenWorkload(NepheleSystem& sys) {
  TsdbConfig tcfg;
  tcfg.tick_interval = SimDuration::Millis(1);
  tcfg.ring_capacity = 16;
  TsdbCollector tsdb(sys.metrics(), sys.loop(), tcfg);
  AlarmEngine alarms(tsdb, sys.metrics());
  for (const AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }
  tsdb.ScheduleTicks(4);
  sys.Settle();
  RunGoldenWorkload(sys);
  tsdb.ScheduleTicks(4);
  sys.Settle();
  return {tsdb.ExportJson(), alarms.ExportJson()};
}

// The request layer's TSDB surface: a fixed seeded load run (scheduler-mode
// request cloning against one parent) under a ticking collector with the
// stock rules. Locks the schema of the new load/* and req/* series and the
// req_tail alarm export.
TsdbExports RunRequestLayerGoldenWorkload(NepheleSystem& sys) {
  TsdbConfig tcfg;
  tcfg.tick_interval = SimDuration::Millis(5);
  tcfg.ring_capacity = 32;
  TsdbCollector tsdb(sys.metrics(), sys.loop(), tcfg);
  AlarmEngine alarms(tsdb, sys.metrics());
  for (const AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }
  CloneScheduler sched(sys);
  DomainConfig cfg;
  cfg.name = "req-golden";
  cfg.max_clones = 64;
  auto parent = sys.toolstack().CreateDomain(cfg);
  EXPECT_TRUE(parent.ok());
  sys.Settle();
  LoadGenerator generator(sys);
  RequestCloneDispatcher dispatcher(sys, sched);
  dispatcher.SetParent(*parent);
  tsdb.ScheduleTicks(4);
  sys.Settle();
  generator.Start(SimDuration::Millis(100),
                  [&dispatcher](const LoadRequest& r) { dispatcher.Submit(r); });
  tsdb.ScheduleTicks(24);  // interleaves with the load run (5 ms apart)
  sys.Settle();
  return {tsdb.ExportJson(), alarms.ExportJson()};
}

TEST(GoldenSchemaTest, RequestLayerTsdbExportMatchesGolden) {
  NepheleSystem sys;
  TsdbExports exports = RunRequestLayerGoldenWorkload(sys);
  CompareOrUpdate("req_tsdb_export.json", exports.tsdb);
}

TEST(GoldenSchemaTest, RequestLayerAlarmExportMatchesGolden) {
  NepheleSystem sys;
  TsdbExports exports = RunRequestLayerGoldenWorkload(sys);
  CompareOrUpdate("req_alarm_export.json", exports.alarms);
}

TEST(GoldenSchemaTest, RequestLayerExportsAreDeterministicAcrossRuns) {
  NepheleSystem a;
  NepheleSystem b;
  TsdbExports ea = RunRequestLayerGoldenWorkload(a);
  TsdbExports eb = RunRequestLayerGoldenWorkload(b);
  EXPECT_EQ(ea.tsdb, eb.tsdb);
  EXPECT_EQ(ea.alarms, eb.alarms);
}

TEST(GoldenSchemaTest, TsdbExportMatchesGolden) {
  NepheleSystem sys;
  TsdbExports exports = RunTsdbGoldenWorkload(sys);
  CompareOrUpdate("tsdb_export.json", exports.tsdb);
}

TEST(GoldenSchemaTest, AlarmExportMatchesGolden) {
  NepheleSystem sys;
  TsdbExports exports = RunTsdbGoldenWorkload(sys);
  CompareOrUpdate("alarm_export.json", exports.alarms);
}

TEST(GoldenSchemaTest, TsdbExportsAreDeterministicAcrossRuns) {
  NepheleSystem a;
  NepheleSystem b;
  TsdbExports ea = RunTsdbGoldenWorkload(a);
  TsdbExports eb = RunTsdbGoldenWorkload(b);
  EXPECT_EQ(ea.tsdb, eb.tsdb);
  EXPECT_EQ(ea.alarms, eb.alarms);
}

TEST(GoldenSchemaTest, MetricsExportMatchesGolden) {
  NepheleSystem sys;
  RunGoldenWorkload(sys);
  CompareOrUpdate("metrics_export.json", sys.metrics().ExportJson());
}

TEST(GoldenSchemaTest, TraceExportMatchesGolden) {
  NepheleSystem sys;
  RunGoldenWorkload(sys);
  CompareOrUpdate("trace_export.json", sys.trace().ExportJson());
}

// The exports are deterministic: two identical systems running the same
// workload serialize identically. This guards the golden comparison itself
// against nondeterminism (which would make the files flap).
TEST(GoldenSchemaTest, ExportsAreDeterministicAcrossRuns) {
  NepheleSystem a;
  NepheleSystem b;
  RunGoldenWorkload(a);
  RunGoldenWorkload(b);
  EXPECT_EQ(a.metrics().ExportJson(), b.metrics().ExportJson());
  EXPECT_EQ(a.trace().ExportJson(), b.trace().ExportJson());
}

}  // namespace
}  // namespace nephele
