#include "src/xenstore/store.h"

#include "src/base/log.h"
#include "src/xenstore/path.h"

namespace nephele {

namespace {
// Approximate oxenstored per-node overhead (tree node, perms, strings).
constexpr std::size_t kPerNodeBytes = 320;

// Hostile-input limits, modelled on xenstored's quota knobs: a guest must
// not be able to balloon dom0 memory with one oversized key or value, nor
// smuggle relative components ("..") past path-prefix permission checks.
constexpr std::size_t kMaxPathBytes = 1024;
constexpr std::size_t kMaxComponentBytes = 256;
constexpr std::size_t kMaxValueBytes = 4096;

Status ValidateXsPath(const std::string& path) {
  if (path.size() > kMaxPathBytes) {
    return ErrInvalidArgument("xenstore path too long");
  }
  for (const auto& comp : SplitXsPath(path)) {
    if (comp.size() > kMaxComponentBytes) {
      return ErrInvalidArgument("xenstore path component too long");
    }
    if (comp == "." || comp == "..") {
      return ErrInvalidArgument("xenstore path components '.'/'..' not allowed");
    }
  }
  return Status::Ok();
}

Status ValidateXsValue(const std::string& value) {
  if (value.size() > kMaxValueBytes) {
    return ErrInvalidArgument("xenstore value too large");
  }
  return Status::Ok();
}
}  // namespace

XenstoreDaemon::XenstoreDaemon(EventLoop& loop, const CostModel& costs,
                               const SystemServices& services)
    : loop_(loop),
      costs_(costs),
      m_requests_(services.metrics.GetCounter("xenstore/requests/total")),
      m_req_write_(services.metrics.GetCounter("xenstore/requests/write")),
      m_req_read_(services.metrics.GetCounter("xenstore/requests/read")),
      m_req_mkdir_(services.metrics.GetCounter("xenstore/requests/mkdir")),
      m_req_rm_(services.metrics.GetCounter("xenstore/requests/rm")),
      m_req_directory_(services.metrics.GetCounter("xenstore/requests/directory")),
      m_req_txn_start_(services.metrics.GetCounter("xenstore/requests/transaction_start")),
      m_req_txn_end_(services.metrics.GetCounter("xenstore/requests/transaction_end")),
      m_req_watch_(services.metrics.GetCounter("xenstore/requests/watch")),
      m_req_unwatch_(services.metrics.GetCounter("xenstore/requests/unwatch")),
      m_req_introduce_(services.metrics.GetCounter("xenstore/requests/introduce")),
      m_req_release_(services.metrics.GetCounter("xenstore/requests/release")),
      m_req_xs_clone_(services.metrics.GetCounter("xenstore/requests/xs_clone")),
      m_watches_fired_(services.metrics.GetCounter("xenstore/watches/fired")),
      m_log_rotations_(services.metrics.GetCounter("xenstore/log/rotations")),
      m_txn_conflicts_(services.metrics.GetCounter("xenstore/txn/conflicts")),
      f_request_(*services.faults.GetPoint("xenstore/request")),
      f_txn_commit_(*services.faults.GetPoint("xenstore/txn_commit")),
      f_xs_clone_(*services.faults.GetPoint("xenstore/xs_clone")) {
  MetricsRegistry& metrics = services.metrics;
  metrics.GetGauge("xenstore/entries").SetProvider([this] {
    return static_cast<std::int64_t>(entries_);
  });
  metrics.GetGauge("xenstore/approx_bytes").SetProvider([this] {
    return static_cast<std::int64_t>(approx_bytes_);
  });
  metrics.GetGauge("xenstore/watches/active").SetProvider([this] {
    return static_cast<std::int64_t>(watches_.size());
  });
  metrics.GetGauge("xenstore/transactions/active").SetProvider([this] {
    return static_cast<std::int64_t>(transactions_.size());
  });
}

Status XenstoreDaemon::ChargeRequest(Counter& op_counter) {
  NEPHELE_RETURN_IF_ERROR(f_request_.Poke());
  m_requests_.Increment();
  op_counter.Increment();
  SimDuration cost = costs_.xs_request_base;
  cost += SimDuration::Nanos(costs_.xs_per_entry_scan.ns() *
                             static_cast<std::int64_t>(entries_));
  if (access_log_enabled_) {
    cost += costs_.xs_log_append;
    if (++requests_since_rotation_ >= costs_.xs_log_rotate_every) {
      requests_since_rotation_ = 0;
      m_log_rotations_.Increment();
      cost += costs_.xs_log_rotate;
    }
  }
  loop_.AdvanceBy(cost);
  return Status::Ok();
}

XenstoreDaemon::Node* XenstoreDaemon::Lookup(const std::string& path) {
  Node* n = &root_;
  for (const auto& comp : SplitXsPath(path)) {
    auto it = n->children.find(comp);
    if (it == n->children.end()) {
      return nullptr;
    }
    n = it->second.get();
  }
  return n;
}

const XenstoreDaemon::Node* XenstoreDaemon::Lookup(const std::string& path) const {
  return const_cast<XenstoreDaemon*>(this)->Lookup(path);
}

XenstoreDaemon::Node& XenstoreDaemon::ChildOrCreate(Node& node, const std::string& name) {
  auto [it, created] = node.children.try_emplace(name);
  if (created) {
    it->second = std::make_unique<Node>();
    approx_bytes_ += kPerNodeBytes + name.size();
  }
  return *it->second;
}

XenstoreDaemon::Node* XenstoreDaemon::LookupOrCreate(const std::string& path) {
  Node* n = &root_;
  for (const auto& comp : SplitXsPath(path)) {
    n = &ChildOrCreate(*n, comp);
  }
  return n;
}

void XenstoreDaemon::SetValue(Node& node, std::string value) {
  if (!node.has_value) {
    node.has_value = true;
    ++entries_;
  }
  approx_bytes_ = approx_bytes_ - node.value.size() + value.size();
  node.value = std::move(value);
}

void XenstoreDaemon::CommitWrite(const std::string& path, const std::string& value) {
  SetValue(*LookupOrCreate(path), value);
  FireWatches(path);
  NoteCommitted(path);
}

Status XenstoreDaemon::Write(const std::string& path, const std::string& value) {
  NEPHELE_RETURN_IF_ERROR(ValidateXsPath(path));
  NEPHELE_RETURN_IF_ERROR(ValidateXsValue(value));
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_write_));
  CommitWrite(path, value);
  return Status::Ok();
}

void XenstoreDaemon::NoteCommitted(const std::string& path) {
  for (auto& [id, t] : transactions_) {
    t.changed.insert(path);
  }
}

Result<std::string> XenstoreDaemon::Read(const std::string& path) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_read_));
  const Node* n = Lookup(path);
  if (n == nullptr || !n->has_value) {
    return ErrNotFound(path);
  }
  return n->value;
}

Status XenstoreDaemon::Mkdir(const std::string& path) {
  NEPHELE_RETURN_IF_ERROR(ValidateXsPath(path));
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_mkdir_));
  LookupOrCreate(path);
  FireWatches(path);
  return Status::Ok();
}

void XenstoreDaemon::CountRemovedSubtree(const std::string& name, const Node& node) {
  if (node.has_value) {
    --entries_;
  }
  approx_bytes_ -= kPerNodeBytes + name.size() + node.value.size();
  for (const auto& [child_name, child] : node.children) {
    CountRemovedSubtree(child_name, *child);
  }
}

Status XenstoreDaemon::Rm(const std::string& path) {
  NEPHELE_RETURN_IF_ERROR(ValidateXsPath(path));
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_rm_));
  auto comps = SplitXsPath(path);
  if (comps.empty()) {
    return ErrInvalidArgument("cannot remove root");
  }
  std::string leaf = comps.back();
  comps.pop_back();
  Node* parent = Lookup(JoinXsPath(comps));
  if (parent == nullptr) {
    return ErrNotFound(path);
  }
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) {
    return ErrNotFound(path);
  }
  CountRemovedSubtree(it->first, *it->second);
  parent->children.erase(it);
  FireWatches(path);
  NoteCommitted(path);
  return Status::Ok();
}

Result<std::vector<std::string>> XenstoreDaemon::Directory(const std::string& path) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_directory_));
  const Node* n = Lookup(path);
  if (n == nullptr) {
    return ErrNotFound(path);
  }
  std::vector<std::string> names;
  names.reserve(n->children.size());
  for (const auto& [name, child] : n->children) {
    names.push_back(name);
  }
  return names;
}


Result<XsTransactionId> XenstoreDaemon::TransactionStart() {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_txn_start_));
  XsTransactionId id = next_txn_++;
  transactions_[id] = Transaction{};
  return id;
}

Status XenstoreDaemon::TxnWrite(XsTransactionId txn, const std::string& path,
                                const std::string& value) {
  NEPHELE_RETURN_IF_ERROR(ValidateXsPath(path));
  NEPHELE_RETURN_IF_ERROR(ValidateXsValue(value));
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_write_));
  auto it = transactions_.find(txn);
  if (it == transactions_.end()) {
    return ErrNotFound("no such transaction");
  }
  it->second.writes.emplace_back(path, value);
  return Status::Ok();
}

Result<std::string> XenstoreDaemon::TxnRead(XsTransactionId txn, const std::string& path) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_read_));
  auto it = transactions_.find(txn);
  if (it == transactions_.end()) {
    return ErrNotFound("no such transaction");
  }
  it->second.reads.push_back(path);
  // Read-your-writes within the transaction.
  for (auto w = it->second.writes.rbegin(); w != it->second.writes.rend(); ++w) {
    if (w->first == path) {
      return w->second;
    }
  }
  const Node* n = Lookup(path);
  if (n == nullptr || !n->has_value) {
    return ErrNotFound(path);
  }
  return n->value;
}

Status XenstoreDaemon::TransactionEnd(XsTransactionId txn, bool commit) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_txn_end_));
  auto it = transactions_.find(txn);
  if (it == transactions_.end()) {
    return ErrNotFound("no such transaction");
  }
  Transaction t = std::move(it->second);
  transactions_.erase(it);
  if (!commit) {
    return Status::Ok();
  }
  // An injected commit failure behaves exactly like a lost conflict race:
  // the transaction is gone and the caller must restart it.
  NEPHELE_RETURN_IF_ERROR(f_txn_commit_.Poke());
  // Conflict detection: any write committed since transaction start that
  // touches one of this transaction's paths aborts it (EAGAIN).
  auto touches = [&](const std::string& path) { return t.changed.count(path) > 0; };
  for (const auto& [path, value] : t.writes) {
    if (touches(path)) {
      m_txn_conflicts_.Increment();
      return ErrAborted("transaction conflict");
    }
  }
  for (const auto& path : t.reads) {
    if (touches(path)) {
      m_txn_conflicts_.Increment();
      return ErrAborted("transaction conflict");
    }
  }
  for (const auto& [path, value] : t.writes) {
    CommitWrite(path, value);
  }
  return Status::Ok();
}

Status XenstoreDaemon::Watch(const std::string& prefix, const std::string& token,
                             const std::string& owner_tag, XsWatchCallback callback) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_watch_));
  watches_.push_back(WatchEntry{prefix, token, owner_tag, std::move(callback)});
  return Status::Ok();
}

Status XenstoreDaemon::Unwatch(const std::string& prefix, const std::string& token) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_unwatch_));
  auto before = watches_.size();
  std::erase_if(watches_, [&](const WatchEntry& w) {
    return w.prefix == prefix && w.token == token;
  });
  return watches_.size() < before ? Status::Ok() : ErrNotFound("no such watch");
}

void XenstoreDaemon::RemoveWatchesOwnedBy(const std::string& owner_tag) {
  std::erase_if(watches_, [&](const WatchEntry& w) { return w.owner_tag == owner_tag; });
}

void XenstoreDaemon::FireWatches(const std::string& path) {
  for (const auto& w : watches_) {
    if (XsPathHasPrefix(path, w.prefix)) {
      m_watches_fired_.Increment();
      // Watch events are delivered asynchronously over the client socket.
      auto cb = w.callback;
      auto token = w.token;
      loop_.Post(SimDuration::Micros(20), [cb, path, token] { cb(path, token); });
    }
  }
}

Status XenstoreDaemon::IntroduceDomain(DomId domid, DomId parent) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_introduce_));
  if (known_domains_.contains(domid)) {
    return ErrAlreadyExists("domain already introduced");
  }
  known_domains_[domid] = parent;
  return Status::Ok();
}

Status XenstoreDaemon::ReleaseDomain(DomId domid) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_release_));
  if (known_domains_.erase(domid) == 0) {
    return ErrNotFound("domain not introduced");
  }
  return Status::Ok();
}

bool XenstoreDaemon::DomainKnown(DomId domid) const { return known_domains_.contains(domid); }

std::string XenstoreDaemon::RewriteValue(const std::string& value, DomId parent, DomId child,
                                         XsCloneOp op) const {
  if (op == XsCloneOp::kBasic) {
    return value;
  }
  const std::string parent_str = std::to_string(parent);
  const std::string child_str = std::to_string(child);
  // Whole-value domid reference (e.g. "frontend-id" = "7").
  if (value == parent_str) {
    return child_str;
  }
  // Path fragment references (e.g. backend = ".../vif/7/0").
  std::string out = value;
  const std::string needle = "/" + parent_str + "/";
  const std::string repl = "/" + child_str + "/";
  std::size_t pos = 0;
  while ((pos = out.find(needle, pos)) != std::string::npos) {
    out.replace(pos, needle.size(), repl);
    pos += repl.size();
  }
  // Trailing "/domain/<id>" references.
  const std::string tail = "/domain/" + parent_str;
  if (out.size() >= tail.size() && out.compare(out.size() - tail.size(), tail.size(), tail) == 0) {
    out.replace(out.size() - tail.size(), tail.size(), "/domain/" + child_str);
  }
  return out;
}

void XenstoreDaemon::CloneSubtree(const Node& src, Node& dst, DomId parent, DomId child,
                                  XsCloneOp op) {
  // Server-side per-node work is far cheaper than a client request: no
  // socket roundtrip, no log append.
  loop_.AdvanceBy(SimDuration::Micros(2));
  if (src.has_value) {
    SetValue(dst, RewriteValue(src.value, parent, child, op));
  }
  for (const auto& [name, node] : src.children) {
    CloneSubtree(*node, ChildOrCreate(dst, name), parent, child, op);
  }
}

Status XenstoreDaemon::XsClone(DomId parent_domid, DomId child_domid, XsCloneOp op,
                               const std::string& parent_path, const std::string& child_path) {
  NEPHELE_RETURN_IF_ERROR(ChargeRequest(m_req_xs_clone_));
  NEPHELE_RETURN_IF_ERROR(f_xs_clone_.Poke());
  const Node* src = Lookup(parent_path);
  if (src == nullptr) {
    return ErrNotFound(parent_path);
  }
  if (!known_domains_.contains(child_domid)) {
    return ErrFailedPrecondition("child domain not introduced");
  }
  CloneSubtree(*src, *LookupOrCreate(child_path), parent_domid, child_domid, op);
  // One watch event for the cloned directory root: backends subscribed to
  // the device root discover the new subtree from it.
  FireWatches(child_path);
  return Status::Ok();
}

bool XenstoreDaemon::Exists(const std::string& path) const {
  const Node* n = Lookup(path);
  return n != nullptr;
}

const std::string* XenstoreDaemon::PeekValue(const std::string& path) const {
  const Node* n = Lookup(path);
  return n != nullptr && n->has_value ? &n->value : nullptr;
}

}  // namespace nephele
