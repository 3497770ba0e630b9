// Metric-naming audit: every name a fully-exercised system registers must
// follow the `subsystem/metric` convention — lowercase [a-z0-9_] path
// segments, at least two of them — and belong to a known subsystem. The
// TSDB collector samples metrics BY NAME into series and the alarm engine
// addresses them declaratively, so a malformed or misplaced name silently
// breaks dashboards and rules; this test turns that into a build failure.

#include <gtest/gtest.h>

#include <regex>
#include <set>
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

// Construct and exercise every metric-registering subsystem so AllNames()
// sees the full surface: system (hypervisor, xenstore, toolstack, clone
// engine, xencloned, fault injector), scheduler, TSDB + alarms,
// and the request layer (load generator + request-cloning dispatcher).
void ExerciseEverything(NepheleSystem& sys) {
  TsdbCollector tsdb(sys.metrics(), sys.loop());
  AlarmEngine alarms(tsdb, sys.metrics());
  for (const AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }
  CloneScheduler sched(sys);
  LoadGenerator generator(sys);
  RequestCloneDispatcher dispatcher(sys, sched);

  DomainConfig cfg;
  cfg.name = "audit";
  cfg.max_clones = 8;
  auto parent = sys.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  sys.Settle();
  const Domain* d = sys.hypervisor().FindDomain(*parent);
  auto children = sys.clone_engine().Clone({*parent, *parent, d->p2m[d->start_info_gfn].mfn, 2});
  ASSERT_TRUE(children.ok());
  sys.Settle();
  ASSERT_TRUE(sys.clone_engine().CloneReset(kDom0, children->front()).ok());
  DomId got = kDomInvalid;
  (void)sched.Acquire({kDom0, *parent, kInvalidMfn, 1},
                      [&got](Result<DomId> r) { got = r.ok() ? *r : kDomInvalid; });
  sys.Settle();
  if (got != kDomInvalid) {
    (void)sched.Release(got);
    sys.Settle();
  }
  dispatcher.SetParent(*parent);
  generator.Start(SimDuration::Millis(50),
                  [&dispatcher](const LoadRequest& r) { dispatcher.Submit(r); });
  sys.Settle();
  tsdb.ScheduleTicks(2);
  sys.Settle();
}

TEST(MetricNamesTest, EveryNameIsSubsystemSlashMetric) {
  NepheleSystem sys;
  ExerciseEverything(sys);
  const std::regex shape("^[a-z0-9_]+(/[a-z0-9_]+)+$");
  for (const std::string& name : sys.metrics().AllNames()) {
    EXPECT_TRUE(std::regex_match(name, shape))
        << "metric '" << name << "' violates the subsystem/metric naming convention";
  }
}

TEST(MetricNamesTest, EverySubsystemPrefixIsKnown) {
  NepheleSystem sys;
  ExerciseEverything(sys);
  const std::set<std::string> known = {"alarm",  "clone",     "fault",    "hypervisor",
                                       "load",   "req",       "sched",    "toolstack",
                                       "tsdb",   "xencloned", "xenstore"};
  for (const std::string& name : sys.metrics().AllNames()) {
    const std::string prefix = name.substr(0, name.find('/'));
    EXPECT_TRUE(known.count(prefix) == 1)
        << "metric '" << name << "' claims unknown subsystem '" << prefix
        << "'; add the subsystem to this allowlist deliberately or fix the name";
  }
}

// The scheduler's names are the ones the TSDB alarms and the fig11 bench
// address literally: lock the exact set so a rename cannot slip through.
TEST(MetricNamesTest, SchedulerNameSetIsExact) {
  NepheleSystem sys;
  ExerciseEverything(sys);
  std::set<std::string> sched_names;
  for (const std::string& name : sys.metrics().AllNames()) {
    if (name.rfind("sched/", 0) == 0) {
      sched_names.insert(name);
    }
  }
  const std::set<std::string> expected = {
      "sched/batch_failures",     "sched/batch_size",
      "sched/batches_dispatched", "sched/evictions",
      "sched/parked_total",       "sched/queue_depth",
      "sched/rejected_queue_full", "sched/requests_total",
      "sched/reset_fallback_destroys", "sched/timeouts",
      "sched/wait_ns",            "sched/warm_grant_ns",
      "sched/warm_hits",          "sched/warm_misses",
      "sched/warm_pool_size"};
  EXPECT_EQ(sched_names, expected);
}

// Same lock for the request layer: the req_tail alarm and the fig12 bench
// address these names literally.
TEST(MetricNamesTest, RequestLayerNameSetsAreExact) {
  NepheleSystem sys;
  ExerciseEverything(sys);
  std::set<std::string> load_names;
  std::set<std::string> req_names;
  for (const std::string& name : sys.metrics().AllNames()) {
    if (name.rfind("load/", 0) == 0) {
      load_names.insert(name);
    } else if (name.rfind("req/", 0) == 0) {
      req_names.insert(name);
    }
  }
  const std::set<std::string> expected_load = {"load/generated", "load/interarrival_ns"};
  const std::set<std::string> expected_req = {
      "req/cancelled",  "req/dispatched",     "req/failed",
      "req/in_flight",  "req/latency_ns",     "req/latency_p99_ns",
      "req/rejected",   "req/service_ns",     "req/submitted",
      "req/wins"};
  EXPECT_EQ(load_names, expected_load);
  EXPECT_EQ(req_names, expected_req);
}

}  // namespace
}  // namespace nephele
