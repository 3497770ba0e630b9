// SchedulerAlarmFeedback: the closed loop between the telemetry pipeline
// and the clone scheduler. Registered as a TsdbObserver on an AlarmEngine,
// it reacts to the `warm_pool_thrash` alarm (the rate of sched/evictions —
// the pool shedding children it is about to need again):
//
//   raised   ->  batch window stretched by kThrashWindowMultiplier (wider
//                windows coalesce more requests per batch, easing churn)
//                and LRU eviction frozen (the pool keeps its warm children
//                while churn persists)
//   cleared  ->  window scale back to 1 and eviction unfrozen; the
//                scheduler's catch-up sweep trims every pool back under
//                its caps
//
// The adapter is policy only — all mechanism lives behind
// CloneScheduler::SetBatchWindowScale / SetEvictionFrozen, so tests and
// operators can drive the same levers directly.

#ifndef SRC_SCHED_FEEDBACK_H_
#define SRC_SCHED_FEEDBACK_H_

#include <cstdint>
#include <string>

#include "src/obs/tsdb/alarm.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/scheduler.h"

namespace nephele {

// Batch-window scale applied while the warm-pool-thrash alarm is raised.
inline constexpr double kThrashWindowMultiplier = 4.0;

class SchedulerAlarmFeedback : public TsdbObserver {
 public:
  // Registers itself on `alarms`; reacts to transitions of the alarm named
  // `alarm_name` (default: the stock warm-pool-thrash rule).
  SchedulerAlarmFeedback(AlarmEngine& alarms, CloneScheduler& sched,
                         std::string alarm_name = "warm_pool_thrash");
  ~SchedulerAlarmFeedback() override;

  SchedulerAlarmFeedback(const SchedulerAlarmFeedback&) = delete;
  SchedulerAlarmFeedback& operator=(const SchedulerAlarmFeedback&) = delete;

  const std::string& alarm_name() const { return alarm_name_; }
  bool engaged() const { return engaged_; }

  void OnAlarmRaised(const AlarmRule& rule, std::uint64_t tick) override;
  void OnAlarmCleared(const AlarmRule& rule, std::uint64_t tick) override;

 private:
  AlarmEngine& alarms_;
  CloneScheduler& sched_;
  std::string alarm_name_;
  bool engaged_ = false;
};

}  // namespace nephele

#endif  // SRC_SCHED_FEEDBACK_H_
