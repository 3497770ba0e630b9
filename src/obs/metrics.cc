#include "src/obs/metrics.h"

#include <algorithm>

namespace nephele {

namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
        break;
    }
  }
}

void AppendKey(std::string& out, std::string_view name) {
  out += '"';
  AppendEscaped(out, name);
  out += "\": ";
}

// One `"section": {...}` of counters or gauges. `metrics` maps sorted names
// to handles (the registry's unique_ptrs or the merged export's pointers).
template <typename Map>
void AppendScalars(std::string& out, std::string_view section, const Map& metrics) {
  out += "  ";
  AppendKey(out, section);
  out += '{';
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendKey(out, name);
    out += std::to_string(metric->value());
  }
  out += first ? "},\n" : "\n  },\n";
}

// The one JSON body behind ExportJson and ExportMergedJson.
template <typename Counters, typename Gauges, typename Histograms>
std::string EmitJson(const Counters& counters, const Gauges& gauges,
                     const Histograms& histograms) {
  std::string out;
  out.reserve(1024);
  out += "{\n";
  AppendScalars(out, "counters", counters);
  AppendScalars(out, "gauges", gauges);
  out += "  \"histograms\": {";
  bool first = true;
  for (const auto& [name, hist] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendKey(out, name);
    out += "{\n      \"count\": " + std::to_string(hist->count());
    out += ",\n      \"sum\": " + std::to_string(hist->sum());
    out += ",\n      \"min\": " + std::to_string(hist->min());
    out += ",\n      \"max\": " + std::to_string(hist->max());
    out += ",\n      \"buckets\": [";
    for (std::size_t i = 0; i < hist->bounds().size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "        {\"le\": " + std::to_string(hist->bounds()[i]) +
             ", \"count\": " + std::to_string(hist->BucketCount(i)) + "}";
    }
    out += ",\n        {\"le\": \"+inf\", \"count\": " +
           std::to_string(hist->BucketCount(hist->bounds().size())) + "}\n      ]\n    }";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<std::int64_t> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    bounds_ = DefaultLatencyBoundsNs();
  }
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

const std::vector<std::int64_t>& Histogram::DefaultLatencyBoundsNs() {
  static const std::vector<std::int64_t> kBounds = {
      1'000,         10'000,        50'000,        100'000,      500'000,
      1'000'000,     2'000'000,     5'000'000,     10'000'000,   50'000'000,
      100'000'000,   500'000'000,   1'000'000'000};
  return kBounds;
}

void Histogram::Observe(std::int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (count_ == 0 || value > max_) {
    max_ = value;
  }
  ++count_;
  sum_ += value;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<std::int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const Counter* c = FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

std::int64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  const Gauge* g = FindGauge(name);
  return g == nullptr ? 0 : g->value();
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::SnapshotCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> MetricsRegistry::SnapshotGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, MetricsRegistry::HistogramSample>>
MetricsRegistry::SnapshotHistograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramSample>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    out.emplace_back(name, HistogramSample{hist->count(), hist->sum()});
  }
  return out;
}

std::vector<std::string> MetricsRegistry::AllNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    out.push_back(name);
  }
  for (const auto& [name, gauge] : gauges_) {
    out.push_back(name);
  }
  for (const auto& [name, hist] : histograms_) {
    out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EmitJson(counters_, gauges_, histograms_);
}

std::string ExportMergedJson(
    const std::vector<std::pair<std::string, const MetricsRegistry*>>& parts) {
  // Collect prefixed handles first (one lock per part), then emit through
  // ExportJson's own body so merged and single-registry exports diff
  // cleanly against each other.
  std::map<std::string, const Counter*> counters;
  std::map<std::string, const Gauge*> gauges;
  std::map<std::string, const Histogram*> histograms;
  for (const auto& [prefix, registry] : parts) {
    if (registry == nullptr) {
      continue;
    }
    std::lock_guard<std::mutex> lock(registry->mu_);
    for (const auto& [name, counter] : registry->counters_) {
      counters[prefix + name] = counter.get();
    }
    for (const auto& [name, gauge] : registry->gauges_) {
      gauges[prefix + name] = gauge.get();
    }
    for (const auto& [name, hist] : registry->histograms_) {
      histograms[prefix + name] = hist.get();
    }
  }
  return EmitJson(counters, gauges, histograms);
}

}  // namespace nephele
