#include "perfbench/trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

std::int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans, bool wall) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = wall ? spans[i].wall_ns() : spans[i].sim_ns();
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= wall ? s.wall_ns() : s.sim_ns();
    }
  }
  return self;
}

}  // namespace

void Tracer::Begin(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.timed = timed_;
  s.sim_begin_ns = loop_->Now().ns();
  s.wall_begin_ns = WallNowNs();
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(s);
}

void Tracer::End() {
  if (open_.empty()) {
    return;
  }
  Span& s = spans_[static_cast<std::size_t>(open_.back())];
  s.wall_end_ns = WallNowNs();
  s.sim_end_ns = loop_->Now().ns();
  open_.pop_back();
}

bool Tracer::Innermost(const char* name) const {
  return !open_.empty() &&
         std::strcmp(spans_[static_cast<std::size_t>(open_.back())].name, name) == 0;
}

std::vector<std::int64_t> Tracer::SelfWallNs() const { return SelfTimes(spans_, true); }
std::vector<std::int64_t> Tracer::SelfSimNs() const { return SelfTimes(spans_, false); }

std::string Tracer::CheckNesting() const {
  if (!open_.empty()) {
    return std::string("span still open: ") + spans_[static_cast<std::size_t>(open_.back())].name;
  }
  // Spans are recorded in begin order, so a parent precedes its children
  // and each child follows its previous sibling.
  std::vector<std::int64_t> last_child_wall_end(spans_.size(), 0);
  std::vector<std::int64_t> last_child_sim_end(spans_.size(), 0);
  std::vector<std::int64_t> tree_wall(spans_.size(), 0);
  std::vector<std::int64_t> tree_sim(spans_.size(), 0);
  const std::vector<std::int64_t> self_wall = SelfWallNs();
  const std::vector<std::int64_t> self_sim = SelfSimNs();
  std::vector<int> root(spans_.size(), -1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.wall_end_ns < s.wall_begin_ns || s.sim_end_ns < s.sim_begin_ns) {
      return std::string("span ends before it begins: ") + s.name;
    }
    root[i] = s.parent < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(s.parent)];
    tree_wall[static_cast<std::size_t>(root[i])] += self_wall[i];
    tree_sim[static_cast<std::size_t>(root[i])] += self_sim[i];
    if (s.parent < 0) {
      continue;
    }
    const auto p = static_cast<std::size_t>(s.parent);
    const Span& ps = spans_[p];
    if (s.wall_begin_ns < ps.wall_begin_ns || s.wall_end_ns > ps.wall_end_ns ||
        s.sim_begin_ns < ps.sim_begin_ns || s.sim_end_ns > ps.sim_end_ns) {
      return std::string("span escapes its parent: ") + s.name + " in " + ps.name;
    }
    if (s.wall_begin_ns < last_child_wall_end[p] || s.sim_begin_ns < last_child_sim_end[p]) {
      return std::string("sibling spans overlap: ") + s.name + " in " + ps.name;
    }
    last_child_wall_end[p] = s.wall_end_ns;
    last_child_sim_end[p] = s.sim_end_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (root[i] == static_cast<int>(i) &&
        (tree_wall[i] != spans_[i].wall_ns() || tree_sim[i] != spans_[i].sim_ns())) {
      return std::string("self times do not sum to the root duration: ") + spans_[i].name;
    }
  }
  return "";
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<std::int64_t> self_wall = SelfWallNs();
  const std::vector<std::int64_t> self_sim = SelfSimNs();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"op\":%llu,\"timed\":%s,"
                 "\"wall_begin_ns\":%lld,\"wall_end_ns\":%lld,\"sim_begin_ns\":%lld,"
                 "\"sim_end_ns\":%lld,\"self_wall_ns\":%lld,\"self_sim_ns\":%lld}\n",
                 i, s.name, s.parent, static_cast<unsigned long long>(s.op),
                 s.timed ? "true" : "false", static_cast<long long>(s.wall_begin_ns),
                 static_cast<long long>(s.wall_end_ns), static_cast<long long>(s.sim_begin_ns),
                 static_cast<long long>(s.sim_end_ns), static_cast<long long>(self_wall[i]),
                 static_cast<long long>(self_sim[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
