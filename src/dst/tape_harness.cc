// The hostile-tape vocabulary's ops and cell model on the harness core.

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "src/core/system.h"
#include "src/devices/hostfs.h"
#include "src/devices/p9.h"
#include "src/dst/tape.h"
#include "src/xenstore/path.h"

namespace nephele {

namespace {

constexpr std::uint32_t kCells = 8;

class TapeHarness : public Harness {
 public:
  TapeHarness(const HvTape& tape, const RunOptions& options)
      : Harness(options, tape.ops.size(), HvVocabulary::kName, "hvop"), tape_(tape) {}

 private:
  void Configure(SystemConfig& config) const override {
    // 64 MiB pool: enough for ~10 guests, small enough that hostile clone
    // storms reach genuine pool exhaustion (the richest rollback surface).
    config.hypervisor.pool_frames = 16384;
    // Lazy children stay half-mapped until a kStream op (or a demand fault)
    // moves them along — the widest hostile window the lazy surface allows.
    config.lazy_clone.stream_batch_pages = 128;
  }
  void AddServices() override {
    p9_ = std::make_unique<P9BackendProcess>(sys_->loop(), sys_->costs(), fs_, "/srv/hv");
    // Seed host files so hostile 9p opens/reads have something legitimate to
    // hit between the escape attempts.
    (void)fs_.CreateFile("/srv/hv/data");
    (void)fs_.CreateFile("/srv/hv/x");
  }
  const char* OpName(std::size_t i) const override { return HvOpKindName(tape_.ops[i].kind); }
  std::uint32_t OpKindIndex(std::size_t i) const override {
    return static_cast<std::uint32_t>(tape_.ops[i].kind);
  }
  void ExecuteOp(std::size_t i) override;
  std::vector<Check> ModelChecks() override { return {{"cells", CheckCells()}}; }
  // Teardown starts quiesced: no fault point armed, no clone mid-flight.
  void BeforeTeardown() override {
    DisarmFaults();
    Settle();
    PruneVanished();
  }
  void TeardownDomain(DomId dom) override {
    Status s = sys_->toolstack().DestroyDomain(dom);
    Settle();
    Record(s);
    if (sys_->hypervisor().FindDomain(dom) == nullptr) {
      ForgetDomain(dom);
    }
    PruneVanished();
  }

  // --- Selector resolution. ---
  // Every 4th selector value resolves hostile: Dom0, a destroyed domain id,
  // or the kDomChild pseudo-domain. An empty live set is always hostile.
  DomId ResolveDom(std::uint32_t sel) {
    if (live_.empty() || sel % 4 == 3) {
      switch ((sel / 4) % 3) {
        case 0:
          return kDom0;
        case 1:
          return dead_.empty() ? static_cast<DomId>(4242) : dead_[(sel / 16) % dead_.size()];
        default:
          return kDomChild;
      }
    }
    return live_[(sel / 4) % live_.size()];
  }

  Gfn CellGfn(std::uint32_t slot) const { return heap0_ + slot; }
  static std::size_t CellOffset(std::uint32_t slot) { return 17 + slot * 13; }

  // Boundary-heavy gfn menu. Plain-heap entries start past the tracked cell
  // pages so only kWrite/kTouch/kCow ranges ever alias a cell.
  Gfn GfnMenu(std::uint32_t c) const {
    switch (c % 6) {
      case 0:
        return 0;  // image text page
      case 1:
        return heap0_ + kCells + (c / 8) % 8;  // plain heap, never a cell
      case 2:
        return static_cast<Gfn>(guest_pages_ - 1);
      case 3:
        return static_cast<Gfn>(guest_pages_);  // one past the end
      case 4:
        return static_cast<Gfn>(guest_pages_) + c;  // far out of range
      default:
        return 0xFFFFFFF0u;  // gfn + count wrap bait
    }
  }
  static std::size_t OffMenu(std::uint32_t n) {
    constexpr std::size_t kMenu[] = {0, 1, 64, 4095, 4096, 4097, static_cast<std::size_t>(-2)};
    return kMenu[n % 7];
  }
  static std::size_t LenMenu(std::uint32_t v) {
    constexpr std::size_t kMenu[] = {0, 1, 2, 4096, 4097, static_cast<std::size_t>(-1) / 2};
    return kMenu[v % 6];
  }
  static std::size_t CountMenu(std::uint32_t n) {
    constexpr std::size_t kMenu[] = {0, 1, 8, 1024, 70000, 0xFFFFFFFFu};
    return kMenu[n % 6];
  }

  // Stale-handle menus: every 4th choice invents a handle out of thin air.
  std::pair<DomId, GrantRef> GrantHandle(std::uint32_t c) {
    if (grants_.empty() || c % 4 == 3) {
      return {ResolveDom(c / 4), static_cast<GrantRef>((c / 16) % 2048)};
    }
    return grants_[c % grants_.size()];
  }
  std::pair<DomId, EvtchnPort> PortHandle(std::uint32_t c) {
    if (ports_.empty() || c % 4 == 3) {
      return {ResolveDom(c / 4), static_cast<EvtchnPort>((c / 16) % 1500)};
    }
    return ports_[c % ports_.size()];
  }
  std::pair<DomId, std::uint32_t> FidHandle(std::uint32_t c, DomId dom) {
    if (fids_.empty() || c % 4 == 3) {
      return {dom, 9999 + c % 7};
    }
    return fids_[c % fids_.size()];
  }

  // --- Cell model maintenance. ---
  bool RangeCoversCell(Gfn gfn, std::size_t count, std::uint32_t slot) const {
    const std::uint64_t g = CellGfn(slot);
    return g >= gfn && g - gfn < count;
  }
  void MarkDirtyRange(DomId dom, Gfn gfn, std::size_t count) {
    if (!cells_.contains(dom)) {
      return;
    }
    for (std::uint32_t slot = 0; slot < kCells; ++slot) {
      if (RangeCoversCell(gfn, count, slot)) {
        dirty_[dom].insert(slot);
      }
    }
  }
  bool RangeIntersectsCells(Gfn gfn, std::size_t count) const {
    for (std::uint32_t slot = 0; slot < kCells; ++slot) {
      if (RangeCoversCell(gfn, count, slot)) {
        return true;
      }
    }
    return false;
  }
  void ResyncCells(DomId dom) {
    auto it = cells_.find(dom);
    if (it == cells_.end()) {
      return;
    }
    for (std::uint32_t slot = 0; slot < kCells; ++slot) {
      std::uint8_t got = 0;
      if (sys_->hypervisor()
              .ReadGuestPage(dom, CellGfn(slot), CellOffset(slot), &got, 1)
              .ok()) {
        it->second[slot] = got;
      }
    }
  }
  void ForgetDomain(DomId dom) {
    Forget(dom);
    cells_.erase(dom);
    dirty_.erase(dom);
    tainted_.erase(dom);
  }
  // Stage-2 aborts destroy children behind the op stream's back; fold them
  // into the dead list (and the digest) before the oracle runs.
  void PruneVanished() {
    std::vector<DomId> gone;
    for (DomId dom : live_) {
      if (sys_->hypervisor().FindDomain(dom) == nullptr) {
        gone.push_back(dom);
      }
    }
    for (DomId dom : gone) {
      log_ << " gone=" << dom;
      ForgetDomain(dom);
    }
  }

  // Folds every op outcome into the op's coverage edges and enforces status
  // discipline: hostile arguments must surface typed errors, never kInternal.
  void OnStatus(const Status& s) override {
    edge_code_ = static_cast<int>(s.code());
    if (s.code() == StatusCode::kInternal) {
      Fail("op-status", "internal error escaped the API: " + s.ToString());
    }
  }
  std::string CheckCells() const {
    for (const auto& [id, want] : cells_) {
      for (std::uint32_t slot = 0; slot < kCells; ++slot) {
        std::string msg = CheckCell(id, slot, CellGfn(slot), CellOffset(slot), want[slot]);
        if (!msg.empty()) {
          return msg;
        }
      }
    }
    return "";
  }

  // --- Op implementations. ---
  void OpClone(const HvOp& op, bool lazy);
  void OpReset(const HvOp& op);
  void OpCow(const HvOp& op);
  void OpDestroy(const HvOp& op);
  void OpGrant(const HvOp& op);
  void OpMap(const HvOp& op);
  void OpUnmap(const HvOp& op);
  void OpEndGrant(const HvOp& op);
  void OpEvAlloc(const HvOp& op);
  void OpEvBind(const HvOp& op);
  void OpEvSend(const HvOp& op);
  void OpEvClose(const HvOp& op);
  void OpXsWrite(const HvOp& op);
  void OpP9(const HvOp& op);
  void OpWrite(const HvOp& op);
  void OpRawAccess(const HvOp& op, bool write);
  void OpTouch(const HvOp& op);
  void OpLazyTouch(const HvOp& op);
  void OpStream(const HvOp& op);

  const HvTape& tape_;
  HostFs fs_;
  std::unique_ptr<P9BackendProcess> p9_;  // destroyed before the core's system

  std::vector<std::pair<DomId, GrantRef>> grants_;   // (granter, ref)
  std::vector<std::pair<DomId, EvtchnPort>> ports_;  // (owner, port)
  std::vector<std::pair<DomId, std::uint32_t>> fids_;

  // Cell model: expected heap-cell bytes per tracked guest, plus which slots
  // were written since the last clone/reset (clone_reset restores exactly
  // the dirtied pages to the parent's current content). A dom is "tainted"
  // when a partial failure left its dirty set unknowable; the next
  // successful reset resyncs from a readback instead of predicting.
  std::map<DomId, std::array<std::uint8_t, kCells>> cells_;
  std::map<DomId, std::set<std::uint32_t>> dirty_;
  std::set<DomId> tainted_;
};

void TapeHarness::ExecuteOp(std::size_t i) {
  const HvOp& op = tape_.ops[i];
  switch (op.kind) {
    case HvOpKind::kLaunch:
      if (auto dom = Launch(); dom.ok()) {
        cells_[*dom] = {};
        dirty_[*dom].clear();
      }
      break;
    case HvOpKind::kClone:
      OpClone(op, /*lazy=*/false);
      break;
    case HvOpKind::kLazyClone:
      OpClone(op, /*lazy=*/true);
      break;
    case HvOpKind::kLazyTouch:
      OpLazyTouch(op);
      break;
    case HvOpKind::kStream:
      OpStream(op);
      break;
    case HvOpKind::kReset:
      OpReset(op);
      break;
    case HvOpKind::kCow:
      OpCow(op);
      break;
    case HvOpKind::kDestroy:
      OpDestroy(op);
      break;
    case HvOpKind::kGrant:
      OpGrant(op);
      break;
    case HvOpKind::kMap:
      OpMap(op);
      break;
    case HvOpKind::kUnmap:
      OpUnmap(op);
      break;
    case HvOpKind::kEndGrant:
      OpEndGrant(op);
      break;
    case HvOpKind::kEvAlloc:
      OpEvAlloc(op);
      break;
    case HvOpKind::kEvBind:
      OpEvBind(op);
      break;
    case HvOpKind::kEvSend:
      OpEvSend(op);
      break;
    case HvOpKind::kEvClose:
      OpEvClose(op);
      break;
    case HvOpKind::kXsWrite:
      OpXsWrite(op);
      break;
    case HvOpKind::kP9:
      OpP9(op);
      break;
    case HvOpKind::kWrite:
      OpWrite(op);
      break;
    case HvOpKind::kRawWrite:
      OpRawAccess(op, /*write=*/true);
      break;
    case HvOpKind::kRead:
      OpRawAccess(op, /*write=*/false);
      break;
    case HvOpKind::kTouch:
      OpTouch(op);
      break;
    // Deliberately no Settle for kArm, kDisarm and kAdvance: none of them
    // may close an open mid-clone window.
    case HvOpKind::kArm:
      ArmFault(op.point, FaultSpec::NthHit(op.nth == 0 ? 1 : op.nth));
      break;
    case HvOpKind::kDisarm:
      DisarmFaults();
      break;
    case HvOpKind::kAdvance:
      AdvanceTime(op.amount);
      break;
    case HvOpKind::kSettle:
      Settle();
      break;
  }
  PruneVanished();
}

void TapeHarness::OpClone(const HvOp& op, bool lazy) {
  DomId parent = ResolveDom(op.a);
  DomId caller = parent;
  switch (op.b % 4) {
    case 0:
      break;  // the parent clones itself — the paper's own model
    case 1:
      caller = kDom0;
      break;
    case 2:
      caller = ResolveDom(op.b / 4);  // an unrelated domain tries
      break;
    default:
      caller = kDomInvalid;
      break;
  }
  const Mfn si = (op.flags & 1) != 0 ? static_cast<Mfn>(0xDEADBEEF) : StartInfoMfn(parent);
  const unsigned n = op.n == 0 ? 1 : 1 + (op.n - 1) % 4;
  auto children = sys_->clone_engine().Clone({caller, parent, si, n, lazy});
  if ((op.flags & 2) != 0) {
    unsettled_ = true;  // leave stage 2 pending: the clone-during-clone window
  } else {
    Settle();
  }
  Record(children.status());
  log_ << " parent=" << parent << " n=" << n;
  if (lazy) {
    log_ << " lazy";
  }
  if (children.ok()) {
    for (DomId child : AdoptChildren(*children)) {
      auto it = cells_.find(parent);
      cells_[child] = it != cells_.end() ? it->second : std::array<std::uint8_t, kCells>{};
      dirty_[child].clear();
    }
  }
}

void TapeHarness::OpReset(const HvOp& op) {
  DomId target = ResolveDom(op.a);
  DomId caller = kDom0;
  switch (op.b % 3) {
    case 0:
      break;
    case 1:
      caller = target;  // self-reset, allowed
      break;
    default:
      caller = ResolveDom(op.b / 4);  // a stranger tries
      break;
  }
  DomId parent = kDomInvalid;
  if (const Domain* d = sys_->hypervisor().FindDomain(target); d != nullptr) {
    parent = d->parent;
  }
  auto restored = sys_->clone_engine().CloneReset(caller, target);
  Settle();
  Record(restored.status());
  log_ << " dom=" << target;
  if (restored.ok()) {
    log_ << " restored=" << *restored;
    if (cells_.contains(target)) {
      auto pit = cells_.find(parent);
      if (tainted_.contains(target) || pit == cells_.end()) {
        ResyncCells(target);
        tainted_.erase(target);
      } else {
        // Reset re-shares exactly the dirtied pages against the parent's
        // *current* frames; untouched pages keep their clone-time content.
        for (std::uint32_t slot : dirty_[target]) {
          cells_[target][slot] = pit->second[slot];
        }
      }
      dirty_[target].clear();
    }
  } else if (cells_.contains(target)) {
    // A mid-loop failure legitimately leaves a restored prefix (documented
    // resume semantics); the model cannot know which slots, so read back.
    ResyncCells(target);
    tainted_.insert(target);
  }
}

void TapeHarness::OpCow(const HvOp& op) {
  DomId target = ResolveDom(op.a);
  const Gfn gfn = GfnMenu(op.c);
  const std::size_t count = CountMenu(op.n);
  Status s = sys_->clone_engine().CloneCow(kDom0, target, gfn, count);
  Settle();
  Record(s);
  log_ << " dom=" << target;
  if (s.ok()) {
    MarkDirtyRange(target, gfn, count);
  } else if (cells_.contains(target) && RangeIntersectsCells(gfn, count)) {
    tainted_.insert(target);  // partial resolve possible before the failure
  }
}

void TapeHarness::OpDestroy(const HvOp& op) {
  DomId target = ResolveDom(op.a);
  Status s = sys_->toolstack().DestroyDomain(target);
  Settle();
  Record(s);
  log_ << " dom=" << target;
  if (sys_->hypervisor().FindDomain(target) == nullptr &&
      std::find(live_.begin(), live_.end(), target) != live_.end()) {
    ForgetDomain(target);
  }
}

void TapeHarness::OpGrant(const HvOp& op) {
  DomId granter = ResolveDom(op.a);
  DomId grantee = kDomInvalid;
  switch (op.b % 5) {
    case 0:
      grantee = ResolveDom(op.b / 8);
      break;
    case 1:
      grantee = granter;  // self-grant
      break;
    case 2:
      grantee = kDomChild;  // the Nephele wildcard
      break;
    case 3:
      grantee = kDom0;
      break;
    default:
      break;  // kDomInvalid
  }
  auto ref = sys_->hypervisor().GrantAccess(granter, grantee, GfnMenu(op.c), (op.flags & 1) != 0);
  Settle();
  Record(ref.status());
  if (ref.ok()) {
    grants_.emplace_back(granter, *ref);
    log_ << " ref=" << *ref;
  }
}

void TapeHarness::OpMap(const HvOp& op) {
  DomId mapper = ResolveDom(op.a);
  auto [granter, ref] = GrantHandle(op.c);
  auto gfn = sys_->hypervisor().MapGrant(mapper, granter, ref);
  Settle();
  Record(gfn.status());
}

void TapeHarness::OpUnmap(const HvOp& op) {
  DomId caller = ResolveDom(op.a);
  auto [granter, ref] = GrantHandle(op.c);
  Status s = sys_->hypervisor().UnmapGrant(caller, granter, ref);
  Settle();
  Record(s);
}

void TapeHarness::OpEndGrant(const HvOp& op) {
  auto [granter, ref] = GrantHandle(op.c);
  if (op.a % 2 == 1) {
    granter = ResolveDom(op.a / 2);  // a stranger tries to revoke
  }
  Status s = sys_->hypervisor().EndGrantAccess(granter, ref);
  Settle();
  Record(s);
}

void TapeHarness::OpEvAlloc(const HvOp& op) {
  DomId owner = ResolveDom(op.a);
  DomId remote = kDomInvalid;
  switch (op.b % 4) {
    case 0:
      remote = ResolveDom(op.b / 8);
      break;
    case 1:
      remote = kDomChild;  // IDC
      break;
    case 2:
      remote = kDom0;
      break;
    default:
      remote = dead_.empty() ? static_cast<DomId>(4242) : dead_[(op.b / 8) % dead_.size()];
      break;
  }
  auto port = sys_->hypervisor().EvtchnAllocUnbound(owner, remote);
  Settle();
  Record(port.status());
  if (port.ok()) {
    ports_.emplace_back(owner, *port);
    log_ << " port=" << *port;
  }
}

void TapeHarness::OpEvBind(const HvOp& op) {
  DomId binder = ResolveDom(op.a);
  auto [remote_dom, remote_port] = PortHandle(op.c);
  auto port = sys_->hypervisor().EvtchnBindInterdomain(binder, remote_dom, remote_port);
  Settle();
  Record(port.status());
  if (port.ok()) {
    ports_.emplace_back(binder, *port);
    log_ << " port=" << *port;
  }
}

void TapeHarness::OpEvSend(const HvOp& op) {
  auto [owner, port] = PortHandle(op.c);
  DomId actor = op.a % 2 == 0 ? owner : ResolveDom(op.a / 2);
  Status s = sys_->hypervisor().EvtchnSend(actor, port);
  Settle();
  Record(s);
}

void TapeHarness::OpEvClose(const HvOp& op) {
  auto [owner, port] = PortHandle(op.c);
  DomId actor = op.a % 2 == 0 ? owner : ResolveDom(op.a / 2);
  Status s = sys_->hypervisor().EvtchnClose(actor, port);
  Settle();
  Record(s);
}

void TapeHarness::OpXsWrite(const HvOp& op) {
  DomId dom = ResolveDom(op.a);
  std::string path;
  switch (op.b % 6) {
    case 0:
      path = XsDomainPath(dom) + "/data/hv/" +
             std::string(1, static_cast<char>('a' + (op.b / 8) % 4));
      break;
    case 1:
      path = XsDomainPath(dom) + "/data/" + std::string(300, 'k');  // oversized component
      break;
    case 2:
      path = XsDomainPath(dom) + "/data/../../0/data/escape";  // subtree escape
      break;
    case 3: {
      path = XsDomainPath(dom) + "/data";
      for (int i = 0; i < 600; ++i) {
        path += "/d";  // 1200+ bytes: over the path cap
      }
      break;
    }
    case 4:
      path = XsDomainPath(dom) + "/data/./x";  // dot component
      break;
    default:
      path = "/tool/hvfuzz";  // outside any domain subtree
      break;
  }
  std::string value;
  switch (op.c % 3) {
    case 0:
      value = "v" + std::to_string(op.c);
      break;
    case 1:
      value = std::string(5000, 'x');  // over the value cap
      break;
    default:
      break;  // empty
  }
  Status s = sys_->xenstore().Write(path, value);
  Settle();
  Record(s);
}

void TapeHarness::OpP9(const HvOp& op) {
  DomId dom = ResolveDom(op.a);
  switch (op.b % 7) {
    case 0: {
      auto fid = p9_->Attach(dom);
      Settle();
      Record(fid.status());
      if (fid.ok()) {
        fids_.emplace_back(dom, *fid);
      }
      break;
    }
    case 1: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      static constexpr const char* kPaths[] = {"..", "a/../../b", ".", "data", "x"};
      auto walked = p9_->Walk(fdom, fid, kPaths[op.c % 5]);
      Settle();
      Record(walked.status());
      if (walked.ok()) {
        fids_.emplace_back(fdom, *walked);
      }
      break;
    }
    case 2: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      Status s = p9_->Open(fdom, fid, (op.c / 8) % 2 != 0);
      Settle();
      Record(s);
      break;
    }
    case 3: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      static const std::string kNames[] = {"f", "..", "a/b", ".", std::string(64, 'n')};
      auto created = p9_->Create(fdom, fid, kNames[op.c % 5]);
      Settle();
      Record(created.status());
      if (created.ok()) {
        fids_.emplace_back(fdom, *created);
      }
      break;
    }
    case 4: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      Status s = p9_->Clunk(fdom, fid);  // handles stay: stale-fid bait
      Settle();
      Record(s);
      break;
    }
    case 5: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      auto data = p9_->Read(fdom, fid, OffMenu(op.n), 4096);
      Settle();
      Record(data.status());
      break;
    }
    default: {
      Status s = p9_->QmpCloneFids(dom, ResolveDom(op.b / 8));
      Settle();
      Record(s);
      break;
    }
  }
}

void TapeHarness::OpWrite(const HvOp& op) {
  DomId dom = ResolveDom(op.a);
  const std::uint32_t slot = op.c % kCells;
  const std::uint8_t value = static_cast<std::uint8_t>(op.v);
  Status s = sys_->hypervisor().WriteGuestPage(dom, CellGfn(slot), CellOffset(slot), &value, 1);
  Settle();
  Record(s);
  log_ << " dom=" << dom << " slot=" << slot;
  if (s.ok() && cells_.contains(dom)) {
    cells_[dom][slot] = value;
    dirty_[dom].insert(slot);
  }
}

void TapeHarness::OpRawAccess(const HvOp& op, bool write) {
  DomId dom = ResolveDom(op.a);
  const Gfn gfn = GfnMenu(op.c);
  const std::size_t off = OffMenu(op.n);
  const std::size_t len = LenMenu(op.v);
  // Oversized lengths get a 1-byte buffer on purpose: the API must reject
  // them before touching memory, and a regression dies under ASan.
  std::vector<std::uint8_t> buf(len <= kPageSize ? std::max<std::size_t>(len, 1) : 1,
                                static_cast<std::uint8_t>(op.v));
  Status s = write ? sys_->hypervisor().WriteGuestPage(dom, gfn, off, buf.data(), len)
                   : sys_->hypervisor().ReadGuestPage(dom, gfn, off, buf.data(), len);
  Settle();
  Record(s);
  if (write && s.ok()) {
    MarkDirtyRange(dom, gfn, 1);  // menu gfns never alias a cell; belt and braces
  }
}

void TapeHarness::OpTouch(const HvOp& op) {
  DomId dom = ResolveDom(op.a);
  const Gfn gfn = GfnMenu(op.c);
  const std::size_t count = CountMenu(op.n);
  Status s = sys_->hypervisor().TouchGuestPages(dom, gfn, count);
  Settle();
  Record(s);
  if (s.ok()) {
    MarkDirtyRange(dom, gfn, count);
  } else if (cells_.contains(dom) && RangeIntersectsCells(gfn, count)) {
    tainted_.insert(dom);  // partial touch possible before the failure
  }
}

void TapeHarness::OpLazyTouch(const HvOp& op) {
  DomId dom = ResolveDom(op.a);
  // Aim at a genuinely not-present page when the target has one (the demand
  // fault path); otherwise fall back to the hostile gfn menu like kTouch.
  Gfn gfn = GfnMenu(op.c);
  if (const Domain* d = sys_->hypervisor().FindDomain(dom); d != nullptr) {
    for (std::size_t g = heap0_; g < d->p2m.size(); ++g) {
      if (d->p2m[g].mfn == kInvalidMfn) {
        gfn = static_cast<Gfn>(g);
        break;
      }
    }
  }
  const std::size_t count = CountMenu(op.n);
  Status s = sys_->hypervisor().TouchGuestPages(dom, gfn, count);
  Settle();
  Record(s);
  log_ << " dom=" << dom << " gfn=" << gfn;
  if (s.ok()) {
    MarkDirtyRange(dom, gfn, count);
  } else if (cells_.contains(dom) && RangeIntersectsCells(gfn, count)) {
    tainted_.insert(dom);  // partial touch possible before the failure
  }
}

void TapeHarness::OpStream(const HvOp& op) {
  if ((op.flags & 1) != 0) {
    DomId dom = ResolveDom(op.a);
    Status s = sys_->clone_engine().FinishStreaming(dom);
    Settle();
    Record(s);
    log_ << " finish dom=" << dom;
  } else {
    const std::size_t pages = sys_->clone_engine().StreamPump(1 + op.n % 4);
    Settle();
    log_ << ' ' << edge_code_ << " pages=" << pages;
  }
}

}  // namespace

RunResult RunTape(const HvTape& tape, const RunOptions& options) {
  return TapeHarness(tape, options).Run();
}

}  // namespace nephele
