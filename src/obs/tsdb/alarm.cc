#include "src/obs/tsdb/alarm.h"

#include <cmath>
#include <utility>

namespace nephele {

namespace {

// Thresholds and aggregates are exported in fixed-point micro-units so the
// JSON stays integer-only (and therefore byte-stable across libc printf
// implementations).
std::int64_t ToMicros(double v) {
  return static_cast<std::int64_t>(std::llround(v * 1e6));
}

}  // namespace

AlarmEngine::AlarmEngine(TsdbCollector& tsdb, MetricsRegistry& registry)
    : tsdb_(tsdb), registry_(registry) {
  tsdb_.AddObserver(this);
}

AlarmEngine::~AlarmEngine() { tsdb_.RemoveObserver(this); }

void AlarmEngine::AddRule(AlarmRule rule) {
  RuleState state;
  state.raised_total = &registry_.GetCounter("alarm/" + rule.name + "/raised_total");
  state.cleared_total = &registry_.GetCounter("alarm/" + rule.name + "/cleared_total");
  state.state_gauge = &registry_.GetGauge("alarm/" + rule.name + "/state");
  state.state_gauge->Set(0);
  std::string name = rule.name;
  state.rule = std::move(rule);
  rules_.insert_or_assign(std::move(name), std::move(state));
}

std::vector<AlarmRule> AlarmEngine::DefaultNepheleRules() {
  std::vector<AlarmRule> rules;
  // Warm-pool thrash: the scheduler is evicting parked children about as
  // fast as it parks them — the pool is undersized for the demand pattern
  // and every eviction throws away an O(reset) grant.
  AlarmRule thrash;
  thrash.name = "warm_pool_thrash";
  thrash.series = "sched/evictions";
  thrash.agg = WindowAgg::kRate;
  thrash.window = 4;
  thrash.raise_above = 0.5;  // evictions per tick
  thrash.clear_below = 0.125;
  thrash.raise_after = 2;
  thrash.clear_after = 2;
  rules.push_back(thrash);
  // Rollback storm: stage-1 failures (or stage-2 aborts) are recurring —
  // the clone path itself is unhealthy, not one unlucky request.
  AlarmRule storm;
  storm.name = "rollback_storm";
  storm.series = "clone/rolled_back";
  storm.agg = WindowAgg::kRate;
  storm.window = 4;
  storm.raise_above = 0.5;  // rollbacks per tick
  storm.clear_below = 0.125;
  storm.raise_after = 2;
  storm.clear_after = 2;
  rules.push_back(storm);
  // Stream stall: lazy (post-copy) clones owe pages and the backlog never
  // drained over the whole window — the prefetcher is stalled (armed
  // lazy/stream fault, starved loop) and children keep paying demand
  // faults. kMin over the pending gauge: a healthy stream touches 0
  // between batches; a stalled one never does.
  AlarmRule stall;
  stall.name = "stream_stall";
  stall.series = "clone/lazy_pending_pages";
  stall.agg = WindowAgg::kMin;
  stall.window = 4;
  stall.raise_above = 0.0;  // min pending stayed > 0 across the window
  stall.clear_below = 1.0;
  stall.raise_after = 2;
  stall.clear_after = 2;
  rules.push_back(stall);
  // Request-tail breach: the windowed p99 of first-response-wins latency
  // (req/latency_p99_ns, maintained by the request-cloning dispatcher over
  // its recent-wins ring) never dipped below 50 ms across the window — the
  // request layer is tail-degraded, not one unlucky spike. kMin, like
  // stream_stall: a healthy tail touches low values between bursts.
  AlarmRule tail;
  tail.name = "req_tail";
  tail.series = "req/latency_p99_ns";
  tail.agg = WindowAgg::kMin;
  tail.window = 4;
  tail.raise_above = 50e6;  // ns: p99 stayed above 50 ms
  tail.clear_below = 20e6;
  tail.raise_after = 2;
  tail.clear_after = 2;
  rules.push_back(tail);
  return rules;
}

AlarmState AlarmEngine::StateOf(std::string_view name) const {
  auto it = rules_.find(name);
  return it == rules_.end() ? AlarmState::kClear : it->second.state;
}

double AlarmEngine::Evaluate(const AlarmRule& rule) const {
  switch (rule.agg) {
    case WindowAgg::kMin:
      return static_cast<double>(tsdb_.Aggregate(rule.series, rule.window).min);
    case WindowAgg::kMax:
      return static_cast<double>(tsdb_.Aggregate(rule.series, rule.window).max);
    case WindowAgg::kMean:
      return tsdb_.Aggregate(rule.series, rule.window).mean;
    case WindowAgg::kRate:
      return tsdb_.Aggregate(rule.series, rule.window).rate_per_tick;
    case WindowAgg::kPercentile:
      return static_cast<double>(tsdb_.Percentile(rule.series, rule.window, rule.percentile));
  }
  return 0.0;
}

void AlarmEngine::OnTick(std::uint64_t tick) {
  for (auto& [name, rs] : rules_) {
    const double value = Evaluate(rs.rule);
    rs.last_value = value;
    if (rs.state == AlarmState::kClear) {
      if (value > rs.rule.raise_above) {
        ++rs.over_streak;
      } else {
        rs.over_streak = 0;
      }
      if (rs.over_streak >= rs.rule.raise_after) {
        rs.state = AlarmState::kRaised;
        rs.over_streak = 0;
        rs.under_streak = 0;
        rs.last_transition_tick = tick;
        rs.raised_total->Increment();
        rs.state_gauge->Set(1);
      }
    } else {
      if (value < rs.rule.clear_below) {
        ++rs.under_streak;
      } else {
        rs.under_streak = 0;
      }
      if (rs.under_streak >= rs.rule.clear_after) {
        rs.state = AlarmState::kClear;
        rs.over_streak = 0;
        rs.under_streak = 0;
        rs.last_transition_tick = tick;
        rs.cleared_total->Increment();
        rs.state_gauge->Set(0);
      }
    }
  }
}

std::string AlarmEngine::ExportJson() const {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"alarms\": {";
  bool first = true;
  for (const auto& [name, rs] : rules_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += name;
    out += "\": {\n";
    out += "      \"series\": \"" + rs.rule.series + "\",\n";
    out += "      \"window\": " + std::to_string(rs.rule.window) + ",\n";
    out += "      \"raise_above_micros\": " + std::to_string(ToMicros(rs.rule.raise_above)) +
           ",\n";
    out += "      \"clear_below_micros\": " + std::to_string(ToMicros(rs.rule.clear_below)) +
           ",\n";
    out += "      \"state\": " + std::to_string(rs.state == AlarmState::kRaised ? 1 : 0) +
           ",\n";
    out += "      \"last_value_micros\": " + std::to_string(ToMicros(rs.last_value)) + ",\n";
    out += "      \"last_transition_tick\": " + std::to_string(rs.last_transition_tick) +
           ",\n";
    out += "      \"raised_total\": " + std::to_string(rs.raised_total->value()) + ",\n";
    out += "      \"cleared_total\": " + std::to_string(rs.cleared_total->value()) + "\n";
    out += "    }";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace nephele
