// The Xenstore daemon: hierarchical key-value registry with watches, the
// access log (whose rotation causes the Fig. 4 latency spikes), and Nephele's
// xs_clone request (Sec. 5.2.1) that clones a whole device directory in one
// request, rewriting domid references server-side.

#ifndef SRC_XENSTORE_STORE_H_
#define SRC_XENSTORE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/hypervisor/types.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"

namespace nephele {

// Clone-request flavours (paper Fig. 3).
enum class XsCloneOp : int {
  kBasic = 0,       // plain in-depth directory copy
  kDevConsole = 1,  // console device heuristics
  kDevVif = 2,      // network device heuristics
  kDev9pfs = 3,     // 9pfs device heuristics
  kDevVbd = 4,      // block device heuristics (Sec. 5.3 extension)
};

// Transaction handle (the xs_transaction_t of the client API, paper Fig. 2).
using XsTransactionId = std::uint32_t;
inline constexpr XsTransactionId kXsNoTransaction = 0;

// Fired on any change at or below the watched prefix. `path` is the changed
// node, `token` the caller-chosen tag.
using XsWatchCallback = std::function<void(const std::string& path, const std::string& token)>;

class XenstoreDaemon {
 public:
  XenstoreDaemon(EventLoop& loop, const CostModel& costs, const SystemServices& services);

  XenstoreDaemon(const XenstoreDaemon&) = delete;
  XenstoreDaemon& operator=(const XenstoreDaemon&) = delete;

  // ------------------------------------------------------------------
  // Standard requests. Every call below models one client request: it
  // charges the request cost, appends to the access log, and may trip a
  // log rotation.
  // ------------------------------------------------------------------
  Status Write(const std::string& path, const std::string& value);
  Result<std::string> Read(const std::string& path);
  Status Mkdir(const std::string& path);
  // Removes the node and its subtree.
  Status Rm(const std::string& path);
  Result<std::vector<std::string>> Directory(const std::string& path);

  // ------------------------------------------------------------------
  // Transactions (XS_TRANSACTION_START/END): writes inside a transaction
  // are buffered and applied atomically on commit. A commit fails with
  // kAborted (xenstored's EAGAIN) when another client wrote one of the
  // transaction's touched paths in the meantime.
  // ------------------------------------------------------------------
  Result<XsTransactionId> TransactionStart();
  // commit=false discards the buffered writes.
  Status TransactionEnd(XsTransactionId txn, bool commit);
  Status TxnWrite(XsTransactionId txn, const std::string& path, const std::string& value);
  // Reads the transaction's own pending write first, then the store.
  Result<std::string> TxnRead(XsTransactionId txn, const std::string& path);
  std::size_t ActiveTransactions() const { return transactions_.size(); }

  // Registers a watch owned by `owner_tag` (used for bulk removal).
  Status Watch(const std::string& prefix, const std::string& token, const std::string& owner_tag,
               XsWatchCallback callback);
  Status Unwatch(const std::string& prefix, const std::string& token);
  void RemoveWatchesOwnedBy(const std::string& owner_tag);

  // Domain registry (XS_INTRODUCE). Cloned domains carry their parent id
  // (Sec. 5.2.1: "the introduction request being augmented with an
  // additional parameter indicating the parent ID").
  Status IntroduceDomain(DomId domid, DomId parent = kDomInvalid);
  Status ReleaseDomain(DomId domid);
  bool DomainKnown(DomId domid) const;

  // ------------------------------------------------------------------
  // xs_clone (paper Fig. 2): clones the directory at `parent_path` to
  // `child_path` as ONE request. Device flavours rewrite every reference
  // to `parent_domid` into `child_domid` (path fragments and whole-value
  // domid strings).
  // ------------------------------------------------------------------
  Status XsClone(DomId parent_domid, DomId child_domid, XsCloneOp op,
                 const std::string& parent_path, const std::string& child_path);

  // ------------------------------------------------------------------
  // Introspection.
  // ------------------------------------------------------------------
  bool Exists(const std::string& path) const;
  // Side-effect-free value lookup: no request charge, no access-log append,
  // no fault pokes. Null when the node is absent or holds no value. This is
  // the DST oracle's window into the store — probing must not perturb the
  // simulation it is checking.
  const std::string* PeekValue(const std::string& path) const;
  std::size_t NumEntries() const { return entries_; }
  // Approximate resident memory of the daemon (for Dom0 accounting, Fig. 5).
  std::size_t ApproxMemoryBytes() const { return approx_bytes_; }

  // Access logging can be disabled (the paper checked this has no effect on
  // the non-spike baseline; we expose it for the same ablation).
  void SetAccessLogEnabled(bool enabled) { access_log_enabled_ = enabled; }

 private:
  struct Node {
    std::string value;
    bool has_value = false;
    std::map<std::string, std::unique_ptr<Node>> children;
  };
  struct WatchEntry {
    std::string prefix;
    std::string token;
    std::string owner_tag;
    XsWatchCallback callback;
  };
  struct Transaction {
    std::vector<std::pair<std::string, std::string>> writes;  // ordered
    std::vector<std::string> reads;
    // Paths committed by others since this transaction started; the commit
    // conflicts when it read or writes any of them.
    std::set<std::string> changed;
  };

  // Charges one request: base + store-size scan + access log (and possibly
  // a rotation). `op_counter` is the per-op-type metric of the request.
  // Fails (before any accounting) when the "xenstore/request" fault point
  // fires — modelling a dropped/errored client request.
  Status ChargeRequest(Counter& op_counter);
  void FireWatches(const std::string& path);

  Node* Lookup(const std::string& path);
  const Node* Lookup(const std::string& path) const;
  Node* LookupOrCreate(const std::string& path);
  // The child `name` of `node`, created (and counted: kPerNodeBytes plus the
  // name) when missing. Every node creation goes through here.
  Node& ChildOrCreate(Node& node, const std::string& name);
  // Gives `node` a value, counting a new entry and the value-size change.
  // Every value write goes through here.
  void SetValue(Node& node, std::string value);
  // Applies a committed write (a plain Write or one write of a transaction
  // commit): sets the value, fires watches and records the path in every
  // open transaction.
  void CommitWrite(const std::string& path, const std::string& value);
  // Subtracts exactly what ChildOrCreate and SetValue added for the subtree
  // `name` -> `node`: per node kPerNodeBytes, its name and its value.
  void CountRemovedSubtree(const std::string& name, const Node& node);
  // Records a committed write or removal of `path` in every open
  // transaction, for conflict detection at its commit.
  void NoteCommitted(const std::string& path);
  // Rewrites parent-domid references in a value per the device heuristics.
  std::string RewriteValue(const std::string& value, DomId parent, DomId child,
                           XsCloneOp op) const;
  // The server-side copy of xs_clone: gives `dst` the rewritten value of
  // `src` (if it has one) and recurses on each (source child, destination
  // child) pair, creating a missing destination child directly under `dst`
  // — no path is built or re-walked from the root. Charges 2 us of virtual
  // time per source node and fires no watch (XsClone fires one on the
  // clone root).
  void CloneSubtree(const Node& src, Node& dst, DomId parent, DomId child, XsCloneOp op);

  EventLoop& loop_;
  const CostModel& costs_;

  Counter& m_requests_;
  Counter& m_req_write_;
  Counter& m_req_read_;
  Counter& m_req_mkdir_;
  Counter& m_req_rm_;
  Counter& m_req_directory_;
  Counter& m_req_txn_start_;
  Counter& m_req_txn_end_;
  Counter& m_req_watch_;
  Counter& m_req_unwatch_;
  Counter& m_req_introduce_;
  Counter& m_req_release_;
  Counter& m_req_xs_clone_;
  Counter& m_watches_fired_;
  Counter& m_log_rotations_;
  Counter& m_txn_conflicts_;
  FaultPoint& f_request_;
  FaultPoint& f_txn_commit_;
  FaultPoint& f_xs_clone_;

  Node root_;
  std::vector<WatchEntry> watches_;
  std::map<DomId, DomId> known_domains_;  // domid -> parent (or kDomInvalid)
  std::map<XsTransactionId, Transaction> transactions_;
  XsTransactionId next_txn_ = 1;
  // Live nodes with values: every request pays a scan over them.
  std::size_t entries_ = 0;
  std::uint64_t requests_since_rotation_ = 0;
  bool access_log_enabled_ = true;
  std::size_t approx_bytes_ = 0;
};

}  // namespace nephele

#endif  // SRC_XENSTORE_STORE_H_
