// Host: one fully-wired virtualization host — hypervisor, Xenstore, device
// backends, toolstack, clone engine and xencloned — running on its own lane
// (src/sim/event_loop.h). A standalone host's lane is a one-lane event-loop
// group of its own; this is the library's main entry point, also named
// NepheleSystem (src/core/system.h, examples/quickstart.cpp). A fabric peer's
// lane joins the ClusterFabric's group (src/core/fabric.h). The lane is the
// host's virtual clock: every component of the host charges it and posts on
// it, so two peers' inline work proceeds in parallel virtual time while their
// events still run in one deterministic order. Code that reaches into a host
// from another lane (the fabric, the cluster scheduler) first hands its time
// over with loop().AdvanceTo().
//
// Every host charges the one calibrated cost model, DefaultCostModel()
// (src/sim/cost_model.h), and keeps its own MetricsRegistry, TraceRecorder
// and FaultInjector, so a host's observable behaviour (metric names, golden
// exports, fault-point sets) is identical whether it runs alone or as one
// of N fabric peers; cluster-level exports tag each host's metrics with its
// `metrics_prefix()` ("hostN/") instead of renaming them in place.

#ifndef SRC_CORE_HOST_H_
#define SRC_CORE_HOST_H_

#include <cstddef>
#include <memory>
#include <string>

#include "src/core/clone_engine.h"
#include "src/core/xencloned.h"
#include "src/devices/device_manager.h"
#include "src/fault/fault.h"
#include "src/hypervisor/hypervisor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"
#include "src/toolstack/toolstack.h"
#include "src/xenstore/store.h"

namespace nephele {

// Every host-side knob, read at construction by the component that
// consumes it (a Host subsystem, or a component built on top such as
// CloneScheduler(Host&)). A value is a knob only where the benches,
// examples, the DST harness or the repo benchmark vary it (18 settable
// values); the cost model, Xen's minimum domain size (kMinDomainPages) and
// the link and tail-window constants are fixed. The telemetry pipeline's
// TsdbConfig is not among them: each caller hands its own to the
// TsdbCollector it builds. The one runtime knob is
// CloneEngine::SetWorkerThreads (staging threads never change results);
// Host::config() stays the construction-time config.
struct SystemConfig {
  HypervisorConfig hypervisor;
  // Host threads staging clone batches. 1 = serial; results are identical
  // at any setting. CloneEngine::SetWorkerThreads retunes it at runtime.
  unsigned clone_worker_threads = 1;
  // Clone-scheduler knobs (batch window, max batch, warm-pool capacity,
  // queue depth, ...). Consumed by CloneScheduler(Host&).
  SchedulerConfig sched;
  // Lazy-clone (post-copy) knobs: prefetcher batch size, rate limit,
  // auto/manual streaming, hot-set cap. Handed to the CloneEngine
  // constructor and used for requests with CloneRequest::lazy set.
  LazyCloneConfig lazy_clone;
  // Heavy-traffic request-layer knobs (arrival process, clone factor,
  // service model). Consumed by LoadGenerator(Host&) and
  // RequestCloneDispatcher(Host&, CloneScheduler&); hosts that never
  // generate load pay nothing.
  LoadConfig load;
};

class Host {
 public:
  // With no `peer` the host is standalone: its lane is a one-lane
  // event-loop group of its own. A fabric passes its loop as `peer`, and
  // the host's lane joins that group. `index` names the host in
  // cluster-level exports ("host0/", "host1/", ...).
  explicit Host(SystemConfig config = {}, EventLoop* peer = nullptr, std::size_t index = 0);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  EventLoop& loop() { return loop_; }
  const CostModel& costs() const { return DefaultCostModel(); }
  Hypervisor& hypervisor() { return *hv_; }
  const Hypervisor& hypervisor() const { return *hv_; }
  XenstoreDaemon& xenstore() { return *xs_; }
  DeviceManager& devices() { return *devices_; }
  Toolstack& toolstack() { return *toolstack_; }
  CloneEngine& clone_engine() { return *engine_; }
  Xencloned& xencloned() { return *xencloned_; }

  // This host's position in the fabric and its tag in cluster exports.
  std::size_t index() const { return index_; }
  const std::string& metrics_prefix() const { return metrics_prefix_; }

  // The host-wide observability surface: every subsystem of this host
  // records into this one registry, so MetricsRegistry::ExportJson() is the
  // whole story of a single-host run. Deterministic for a seeded scenario.
  // Names are NOT host-prefixed here — ExportMergedJson applies the prefix
  // at the cluster level, keeping single-host golden exports stable.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }

  // The host-wide deterministic fault injector. Every subsystem registers
  // its fault points here at construction; tests arm them by name (see
  // src/fault/fault.h). Fabric-level points (fabric/link, fabric/migrate)
  // live in ClusterFabric::fault_injector(), not here, so per-host fault
  // sweeps keep enumerating exactly the host-local surface.
  FaultInjector& fault_injector() { return faults_; }

  // The service bundle (metrics + trace + faults) components constructed on
  // top of this host (GuestManager, CloneScheduler, ...) should receive.
  SystemServices services() { return SystemServices{metrics_, trace_, faults_}; }

  // The construction-time configuration. Clone staging threads are retuned
  // at runtime through clone_engine().SetWorkerThreads, which this does not
  // track.
  const SystemConfig& config() const { return config_; }

  // Runs the whole event-loop group until idle.
  void Settle() { loop_.Run(); }
  SimTime Now() const { return loop_.Now(); }

 private:
  SystemConfig config_;
  EventLoop loop_;  // this host's lane
  std::size_t index_;
  std::string metrics_prefix_;
  MetricsRegistry metrics_;  // constructed before every subsystem using it
  TraceRecorder trace_{loop_};
  FaultInjector faults_{metrics_};
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<XenstoreDaemon> xs_;
  std::unique_ptr<DeviceManager> devices_;
  std::unique_ptr<Toolstack> toolstack_;
  std::unique_ptr<CloneEngine> engine_;
  std::unique_ptr<Xencloned> xencloned_;
};

}  // namespace nephele

#endif  // SRC_CORE_HOST_H_
