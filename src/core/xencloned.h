// xencloned: the new toolstack daemon that runs the second stage of cloning
// in Dom0 userspace (Sec. 4.2, 5): introduces the child to Xenstore, clones
// the device registry entries (via xs_clone or per-entry deep copy), kicks
// each backend's clone path, handles the resulting udev events, and reports
// completion back to the hypervisor. A failed second stage unwinds with the
// toolstack's one Dom0 teardown body and destroys the child; a child
// destroyed before its notification is drained is skipped.

#ifndef SRC_CORE_XENCLONED_H_
#define SRC_CORE_XENCLONED_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/base/result.h"
#include "src/core/clone_engine.h"
#include "src/core/clone_types.h"
#include "src/devices/device_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/obs/trace.h"
#include "src/toolstack/toolstack.h"
#include "src/xenstore/store.h"

namespace nephele {

class Xencloned {
 public:
  Xencloned(Hypervisor& hv, CloneEngine& engine, XenstoreDaemon& xs, DeviceManager& devices,
            Toolstack& toolstack, EventLoop& loop, const CostModel& costs,
            const SystemServices& services);

  // Binds VIRQ_CLONED, submits the notification ring and enables cloning
  // globally — the daemon's startup sequence.
  Status Start();

  // The xs_clone ablation: disable to fall back to one write request per
  // Xenstore entry (the "clone + XS deep copy" series of Fig. 4).
  void SetUseXsClone(bool use) { use_xs_clone_ = use; }

  // Udev events for clone-created vifs land here (routed by the system
  // wiring); charges the udev wakeup, attaches the vif through
  // Toolstack::AttachVif and reports completion.
  void HandleUdev(const UdevEvent& event);

  // Userspace (second-stage) duration of the most recent clone, excluding
  // asynchronous udev completion — the "userspace operations" series of
  // Figs. 6 and 8.
  SimDuration last_second_stage() const { return last_second_stage_; }

 private:
  struct ParentInfoCache {
    DomainConfig config;
    bool valid = false;
  };

  // The VIRQ_CLONED handler: runs the second stage of every pending
  // notification.
  void DrainNotifications();
  void HandleNotification(const CloneNotification& n);
  // The fallible body of the second stage. Any error aborts the clone:
  // HandleNotification then calls AbortSecondStage to unwind.
  Status RunSecondStage(const CloneNotification& n);
  // Unwinds a failed second stage: Toolstack::TeardownDom0State with the
  // parent's device set, one charged CLONEOP hypercall reporting the
  // failure, and the child's destroy, whose hook (CloneEngine::
  // OnDomainDestroy) retires the pending slot so the parent never stays
  // blocked on the failed child.
  void AbortSecondStage(const CloneNotification& n, const Status& why);
  // Reads (or serves from cache) the parent's Xenstore information needed
  // to build the clone's entries (Sec. 6.2: ~3 ms first clone, ~1.9 ms
  // cached afterwards).
  const DomainConfig& ParentConfig(DomId parent);
  Status CloneXenstoreEntries(DomId parent, DomId child, const DomainConfig& config);
  Status DeepCopyXenstoreEntries(DomId parent, DomId child, const DomainConfig& config);

  Hypervisor& hv_;
  CloneEngine& engine_;
  XenstoreDaemon& xs_;
  DeviceManager& devices_;
  Toolstack& toolstack_;
  EventLoop& loop_;
  const CostModel& costs_;

  TraceRecorder& trace_;
  Counter& m_clones_completed_;
  Counter& m_clones_aborted_;
  Counter& m_cache_hits_;
  Counter& m_cache_misses_;
  Counter& m_deep_copy_writes_;
  Histogram& m_stage2_ns_;
  FaultPoint& f_stage2_;

  bool use_xs_clone_ = true;
  std::map<DomId, ParentInfoCache> parent_cache_;
  std::uint64_t clone_name_counter_ = 0;
  SimDuration last_second_stage_;
};

}  // namespace nephele

#endif  // SRC_CORE_XENCLONED_H_
