#include "src/sched/feedback.h"

namespace nephele {

SchedulerAlarmFeedback::SchedulerAlarmFeedback(AlarmEngine& alarms, CloneScheduler& sched,
                                               std::string alarm_name)
    : alarms_(alarms), sched_(sched), alarm_name_(std::move(alarm_name)) {
  alarms_.AddObserver(this);
}

SchedulerAlarmFeedback::~SchedulerAlarmFeedback() {
  alarms_.RemoveObserver(this);
  if (engaged_) {
    sched_.SetBatchWindowScale(1.0);
    sched_.SetEvictionFrozen(false);
  }
}

void SchedulerAlarmFeedback::OnAlarmRaised(const AlarmRule& rule, std::uint64_t tick) {
  (void)tick;
  if (rule.name != alarm_name_ || engaged_) {
    return;
  }
  engaged_ = true;
  sched_.SetBatchWindowScale(kThrashWindowMultiplier);
  sched_.SetEvictionFrozen(true);
}

void SchedulerAlarmFeedback::OnAlarmCleared(const AlarmRule& rule, std::uint64_t tick) {
  (void)tick;
  if (rule.name != alarm_name_ || !engaged_) {
    return;
  }
  engaged_ = false;
  sched_.SetBatchWindowScale(1.0);
  sched_.SetEvictionFrozen(false);
}

}  // namespace nephele
