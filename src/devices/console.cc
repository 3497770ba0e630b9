#include "src/devices/console.h"

namespace nephele {

Status ConsoleBackend::CreateConsole(DomId dom) {
  if (consoles_.contains(dom)) {
    return ErrAlreadyExists("console exists");
  }
  consoles_.emplace(dom, ConsoleState{});
  return Status::Ok();
}

Status ConsoleBackend::CloneConsole(DomId parent, DomId child) {
  NEPHELE_RETURN_IF_ERROR(f_clone_.Poke());
  if (!consoles_.contains(parent)) {
    return ErrNotFound("parent console missing");
  }
  if (consoles_.contains(child)) {
    return ErrAlreadyExists("child console exists");
  }
  // Fresh ring, empty output: deliberately not copied.
  consoles_.emplace(child, ConsoleState{});
  return Status::Ok();
}

Status ConsoleBackend::DestroyConsole(DomId dom) {
  if (consoles_.erase(dom) == 0) {
    return ErrNotFound("no console");
  }
  return Status::Ok();
}

Status ConsoleBackend::GuestWrite(DomId dom, const std::string& text) {
  auto it = consoles_.find(dom);
  if (it == consoles_.end()) {
    return ErrNotFound("no console");
  }
  for (char c : text) {
    // Backend drains eagerly, so the ring never backs up in practice.
    NEPHELE_RETURN_IF_ERROR(it->second.ring.Push(c));
    auto popped = it->second.ring.Pop();
    it->second.output.push_back(*popped);
  }
  loop_.AdvanceBy(SimDuration::Nanos(static_cast<std::int64_t>(text.size() * 20)));
  return Status::Ok();
}

Result<std::string> ConsoleBackend::Output(DomId dom) const {
  auto it = consoles_.find(dom);
  if (it == consoles_.end()) {
    return ErrNotFound("no console");
  }
  return it->second.output;
}

}  // namespace nephele
