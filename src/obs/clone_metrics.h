// CloneMetricsObserver: the metrics layer's CloneObserver. Turns clone-path
// events into registry metrics — exactly the way a bench or tracer would
// subscribe, proving the observer API carries enough information. It only
// records what the engine and hypervisor do not count themselves (batches
// are clone/batches_total, COW faults hypervisor/cow/*).

#ifndef SRC_OBS_CLONE_METRICS_H_
#define SRC_OBS_CLONE_METRICS_H_

#include <map>

#include "src/obs/clone_observer.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"

namespace nephele {

class CloneMetricsObserver : public CloneObserver {
 public:
  CloneMetricsObserver(MetricsRegistry& metrics, EventLoop& loop);

  void OnCloneStart(DomId parent, unsigned num_clones) override;
  void OnCloneComplete(DomId parent, DomId child) override;
  void OnResume(DomId dom, bool is_child) override;

 private:
  EventLoop& loop_;
  Counter& completions_;
  Counter& child_resumes_;
  Counter& parent_resumes_;
  // Guest-visible fork() latency: CLONEOP entry to parent resume.
  Histogram& fork_to_resume_ns_;
  std::map<DomId, SimTime> batch_start_;
};

}  // namespace nephele

#endif  // SRC_OBS_CLONE_METRICS_H_
