// AlarmEngine: declarative threshold alarms over TSDB series — the netdata
// health-engine shape. Each rule names a series, a windowed aggregation and
// a pair of thresholds; the engine re-evaluates every rule after each
// collector tick and drives a hysteresis-guarded two-state machine:
//
//   clear -> raised   after `raise_after` CONSECUTIVE ticks with the
//                     aggregate strictly above `raise_above`
//   raised -> clear   after `clear_after` consecutive ticks strictly below
//                     `clear_below`
//
// Boundary values (== a threshold) advance neither streak, and the gap
// between the two thresholds plus the streak requirement means a series
// hovering at the limit cannot flap the alarm. Transitions are mirrored
// into the registry as `alarm/<name>/{state,raised_total,cleared_total}` —
// where the collector picks them up as series like any other metric — and
// read back through StateOf() and ExportJson(). Alarms report; nothing in
// the control plane acts on them.

#ifndef SRC_OBS_TSDB_ALARM_H_
#define SRC_OBS_TSDB_ALARM_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/tsdb/tsdb.h"

namespace nephele {

enum class AlarmState { kClear, kRaised };

// How a rule reduces its window to the one value the thresholds judge.
enum class WindowAgg { kMin, kMax, kMean, kRate, kPercentile };

struct AlarmRule {
  // Alarm identity; must follow the subsystem-less `[a-z0-9_]+` shape (the
  // registry mirror prefixes it with "alarm/").
  std::string name;
  // TSDB series the rule watches (a registry metric name, or `<hist>/count`
  // / `<hist>/sum` for histogram series).
  std::string series;
  WindowAgg agg = WindowAgg::kRate;
  // Percentile rank for WindowAgg::kPercentile, in [0, 100].
  double percentile = 99.0;
  // Ticks aggregated per evaluation (clamped to retained history).
  std::size_t window = 4;
  // Hysteresis band: raise strictly above, clear strictly below. Keep
  // clear_below <= raise_above or the alarm can never settle.
  double raise_above = 0.0;
  double clear_below = 0.0;
  // Consecutive out-of-band ticks required for each transition.
  unsigned raise_after = 2;
  unsigned clear_after = 2;
};

class AlarmEngine : public TsdbObserver {
 public:
  // Registers itself as an observer on `tsdb`; transitions are mirrored
  // into `registry` (pass the same registry the collector samples so alarm
  // state itself becomes a series).
  AlarmEngine(TsdbCollector& tsdb, MetricsRegistry& registry);
  ~AlarmEngine() override;

  AlarmEngine(const AlarmEngine&) = delete;
  AlarmEngine& operator=(const AlarmEngine&) = delete;

  void AddRule(AlarmRule rule);
  // The stock rule set for a host, four rules: `warm_pool_thrash` on the
  // `sched/evictions` rate, `rollback_storm` on the `clone/rolled_back`
  // rate, `stream_stall` on the windowed minimum of
  // `clone/lazy_pending_pages` and `req_tail` on the windowed minimum of
  // `req/latency_p99_ns`.
  static std::vector<AlarmRule> DefaultNepheleRules();

  // kClear for unknown names (an alarm that does not exist is not firing).
  AlarmState StateOf(std::string_view name) const;

  // TsdbObserver: evaluates every rule, in rule-name order.
  void OnTick(std::uint64_t tick) override;

  // Deterministic export: every rule's configuration echo, state and
  // transition counts in name order. Integer values plus fixed-point
  // thresholds (micro-units), so reruns are byte-identical.
  std::string ExportJson() const;

 private:
  struct RuleState {
    AlarmRule rule;
    AlarmState state = AlarmState::kClear;
    unsigned over_streak = 0;
    unsigned under_streak = 0;
    double last_value = 0.0;
    std::uint64_t last_transition_tick = 0;
    Counter* raised_total = nullptr;
    Counter* cleared_total = nullptr;
    Gauge* state_gauge = nullptr;
  };

  double Evaluate(const AlarmRule& rule) const;

  TsdbCollector& tsdb_;
  MetricsRegistry& registry_;
  std::map<std::string, RuleState, std::less<>> rules_;
};

}  // namespace nephele

#endif  // SRC_OBS_TSDB_ALARM_H_
