// Benchmark-side tracing: spans around the calls the benchmark makes into
// each layer (Fork, Acquire, Submit, Migrate, RegisterParent, CreateDomain,
// EventLoop::Run) and around the hooks it installs (a CloneObserver and a
// clone-executor wrapper). Every span carries both clocks: host wall time
// and the simulator's virtual time. Spans stay in memory until the run ends.
//
// A span's self time is its duration minus the time its direct children
// cover. Children are strictly nested (calls on one thread), so the self
// times of a span tree sum exactly to the root's duration; CheckNesting()
// verifies the nesting that guarantees it.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int parent = -1;          // index of the enclosing span, -1 for a root
  std::uint64_t op = 0;     // op id the span serves; 0 when it serves none
  bool timed = false;       // begun inside the timed phase
  std::int64_t wall_begin_ns = 0;
  std::int64_t wall_end_ns = 0;
  std::int64_t sim_begin_ns = 0;
  std::int64_t sim_end_ns = 0;

  std::int64_t wall_ns() const { return wall_end_ns - wall_begin_ns; }
  std::int64_t sim_ns() const { return sim_end_ns - sim_begin_ns; }
};

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The loop whose virtual time spans record. Bound by the workload once it
  // has built the simulator, before the first span.
  void Bind(const nephele::EventLoop& loop) { loop_ = &loop; }

  // `name` must be a string literal: spans keep the pointer.
  void Begin(const char* name, std::uint64_t op = 0);
  void End();
  // True when the innermost open span is `name`.
  bool Innermost(const char* name) const;
  void MarkTimed() { timed_ = true; }

  const std::vector<Span>& spans() const { return spans_; }
  // Self time of every span, parallel to spans().
  std::vector<std::int64_t> SelfWallNs() const;
  std::vector<std::int64_t> SelfSimNs() const;

  // "" when every span is closed, every child lies inside its parent on
  // both clocks, siblings do not overlap, and the self times of each root's
  // tree sum to the root's duration; otherwise the first violation.
  std::string CheckNesting() const;

  // One JSON object per line: name, parent, op, both clocks, self times.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const nephele::EventLoop* loop_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> open_;
  bool timed_ = false;
};

// Opens a span for the scope when tracing is on; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, op);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
