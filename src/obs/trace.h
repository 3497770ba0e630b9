// Lightweight trace spans stamped with *simulated* time from the EventLoop.
// A span covers one logical operation on the clone/boot path ("clone/stage1",
// "clone/stage2", "toolstack/boot"); the recorder keeps a bounded buffer and
// exports deterministic JSON for offline inspection.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/time.h"

namespace nephele {

struct TraceEvent {
  std::string name;
  SimTime start;
  SimTime end;
  // Small integer annotations (domid, clone count, pages...), in the order
  // they were added.
  std::vector<std::pair<std::string, std::int64_t>> args;
};

class TraceRecorder;

// RAII span: records into the recorder when End() runs (or at destruction).
// A default-constructed or moved-from span holds no recorder and is inert.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceRecorder* recorder, std::string name);

  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    End();
    recorder_ = other.recorder_;
    event_ = std::move(other.event_);
    other.recorder_ = nullptr;
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { End(); }

  void AddArg(std::string key, std::int64_t value);
  // Stamps the end time and hands the event to the recorder. Idempotent.
  void End();

 private:
  TraceRecorder* recorder_ = nullptr;
  TraceEvent event_;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(EventLoop& loop, std::size_t max_events = 8192)
      : loop_(loop), max_events_(max_events) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  TraceSpan BeginSpan(std::string name) { return TraceSpan(this, std::move(name)); }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped_events() const { return dropped_; }

  // {"spans": [{"name": ..., "start_ns": ..., "end_ns": ..., "args": {...}},
  // ...]} in recording order — deterministic for a deterministic scenario.
  std::string ExportJson() const;

 private:
  friend class TraceSpan;

  SimTime Now() const { return loop_.Now(); }
  void Record(TraceEvent event) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(std::move(event));
  }

  EventLoop& loop_;
  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace nephele

#endif  // SRC_OBS_TRACE_H_
