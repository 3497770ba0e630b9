// The scenario vocabulary's ops and model oracle on the harness core.

#include <algorithm>
#include <map>
#include <memory>

#include "src/core/system.h"
#include "src/dst/reference_model.h"
#include "src/dst/scenario.h"
#include "src/obs/clone_observer.h"
#include "src/sched/scheduler.h"
#include "src/xenstore/path.h"

namespace nephele {

namespace {

// The counters whose deltas the model predicts on cleanly-modelled ops.
// While any fault point is armed (or after an op with unmodelled side
// effects, e.g. a rolled-back batch's create/destroy churn) the harness
// re-baselines from the registry instead of comparing.
constexpr const char* kTrackedCounters[] = {
    "clone/clones_total",         "clone/batches_total",
    "clone/reset/count",          "clone/reset/pages_restored",
    "clone/rolled_back",          "xencloned/clones_completed",
    "xencloned/clones_aborted",   "toolstack/domains_booted",
    "toolstack/domains_restored",  "toolstack/domains_destroyed",
    "hypervisor/domains/created", "hypervisor/domains/destroyed",
    "clone/lazy/clones",          "clone/streamed_pages",
    "clone/lazy/demand_faults",
};

std::string EncodeDevioValue(std::uint32_t v) {
  // Letters only, so xs_clone's domid-rewriting heuristics can never touch
  // the value and the model's verbatim-copy expectation holds.
  std::string out = "v";
  do {
    out.push_back(static_cast<char>('a' + v % 10));
    v /= 10;
  } while (v != 0);
  return out;
}

std::string DevioPath(DomId dom, std::uint32_t key) {
  return XsDomainPath(dom) + "/data/dst/" + std::string(1, static_cast<char>('a' + key));
}

// The harness also observes the engine: OnDestroy mirrors a domain the
// scheduler destroys inside Release (an eviction or a reset fallback) into
// the model and the lists. Any other destroy the harness did not make goes
// unmirrored, so the live-set, topology and counter checks catch it.
class ScenarioHarness : public Harness, public CloneObserver {
 public:
  ScenarioHarness(const Scenario& scenario, const RunOptions& options)
      : Harness(options, scenario.ops.size(), DstVocabulary::kName, "op"), scenario_(scenario) {}
  ~ScenarioHarness() override {
    if (sys_ != nullptr) {
      sys_->clone_engine().RemoveObserver(this);
    }
  }

 private:
  void Configure(SystemConfig& config) const override {
    config.hypervisor.pool_frames = scenario_.pool_frames;
    // Fixed, tight scheduler knobs so scenarios exercise batching, warm-pool
    // reuse and queue-full rejection with few ops. The 1 ms window and 100 ms
    // timeout both drain inside each op's Settle, so every scheduler decision
    // lands within the op that caused it.
    config.sched.batch_window = SimDuration::Millis(1);
    config.sched.max_batch = 4;
    config.sched.warm_pool_capacity = 2;
    config.sched.max_queue_depth = 4;
    config.sched.request_timeout = SimDuration::Millis(100);
    // ExecuteOp pumps exactly one stream batch after every op, so each op
    // sits in a deterministic mid-stream window.
    config.lazy_clone.stream_batch_pages = 256;
  }
  void AddServices() override {
    sched_ = std::make_unique<CloneScheduler>(*sys_);
    sys_->clone_engine().AddObserver(this);
    WireScheduler();
    ResyncCounters();
  }
  void OnDestroy(DomId dom) override;
  const char* OpName(std::size_t i) const override { return OpKindName(scenario_.ops[i].kind); }
  std::uint32_t OpKindIndex(std::size_t i) const override {
    return static_cast<std::uint32_t>(scenario_.ops[i].kind);
  }
  void ExecuteOp(std::size_t i) override;
  std::vector<Check> ModelChecks() override {
    return {
        {"live-set", CheckLiveSet()}, {"topology", CheckTopology()},
        {"cells", CheckCells()},      {"xenstore", CheckXenstore()},
        {"counters", CheckCounters()},
    };
  }
  void TeardownDomain(DomId dom) override { DestroyDom(dom); }

  bool Skips(const Op& op) const;
  void OpLaunch();
  void OpClone(const Op& op, bool lazy);
  void OpTouchUnmapped(const Op& op);
  // Shared tail of kCowWrite and kTouchUnmapped: performs the tracked-cell
  // write, predicting the demand-fault materialisations it must cause.
  void WriteCell(DomId dom, std::uint32_t slot, std::uint8_t value);
  void OpReset(const Op& op);
  void DestroyDom(DomId dom);
  void OpMigrateOut(const Op& op);
  void OpMigrateIn(const Op& op);
  void OpDevio(const Op& op);
  void OpSchedAcquire(const Op& op);
  void OpSchedRelease(const Op& op);
  void WireScheduler();
  // Model + list bookkeeping for a domain that is gone from the system.
  void Destroyed(DomId dom, std::size_t stream_pending);

  std::string CheckLiveSet();
  std::string CheckTopology();
  std::string CheckCells();
  std::string CheckXenstore();
  std::string CheckCounters();

  DomId Pick(std::uint32_t index) const { return live_[index % live_.size()]; }
  Gfn CellGfn(std::uint32_t slot) const {
    return heap0_ + static_cast<Gfn>(ReferenceModel::SlotPage(slot % ReferenceModel::kCells));
  }

  // --- Post-copy (lazy clone) predictions. The engine counts every hook
  // materialisation — the writer's own fault and parent-write pushes — in
  // clone/lazy/demand_faults; mirror its decision by peeking p2m presence
  // before the op runs. ---
  std::size_t PredictDemandFaults(DomId dom, Gfn gfn) const {
    const CloneEngine& engine = sys_->clone_engine();
    const Domain* d = sys_->hypervisor().FindDomain(dom);
    if (d == nullptr || gfn >= d->p2m.size()) {
      return 0;
    }
    if (engine.IsStreaming(dom) && d->p2m[gfn].mfn == kInvalidMfn) {
      return 1;  // the writer demand-faults its own deferred page
    }
    // A parent write pushes the pre-write frame to every streaming child
    // still deferring this gfn, one demand fault each.
    std::size_t pushes = 0;
    for (DomId child : live_) {
      const Domain* c = sys_->hypervisor().FindDomain(child);
      if (c != nullptr && c->parent == dom && engine.IsStreaming(child) &&
          gfn < c->p2m.size() && c->p2m[gfn].mfn == kInvalidMfn) {
        ++pushes;
      }
    }
    return pushes;
  }
  // Pages force-streamed when `dom`'s streaming children must finish
  // (clone_reset of dom, destroy of dom).
  std::size_t PendingChildStreamPages(DomId dom) const {
    std::size_t pending = 0;
    for (DomId child : live_) {
      const Domain* c = sys_->hypervisor().FindDomain(child);
      if (c != nullptr && c->parent == dom) {
        pending += sys_->clone_engine().PendingStreamPages(child);
      }
    }
    return pending;
  }

  void Expect(std::string_view counter, std::uint64_t delta) {
    expected_[std::string(counter)] += delta;
  }
  void ResyncCounters() {
    for (const char* name : kTrackedCounters) {
      expected_[name] = sys_->metrics().CounterValue(name);
    }
  }

  const Scenario& scenario_;
  std::unique_ptr<CloneScheduler> sched_;  // destroyed before the core's system
  ReferenceModel model_;
  std::vector<DomId> granted_;  // scheduler grants eligible for release
  std::vector<MigrationStream> streams_;
  std::map<std::string, std::uint64_t> expected_;
  bool in_release_ = false;  // true only across sched_->Release (see OnDestroy)
};

bool ScenarioHarness::Skips(const Op& op) const {
  switch (op.kind) {
    case OpKind::kLaunchGuest:
    case OpKind::kArmFault:
    case OpKind::kDisarmFaults:
    case OpKind::kAdvanceTime:
      return false;
    case OpKind::kMigrateIn:
      return streams_.empty();
    case OpKind::kSchedRelease:
      return granted_.empty();
    default:
      return live_.empty();
  }
}

void ScenarioHarness::ExecuteOp(std::size_t i) {
  const Op& op = scenario_.ops[i];
  if (Skips(op)) {
    log_ << " skip";
  } else {
    switch (op.kind) {
      case OpKind::kLaunchGuest:
        OpLaunch();
        break;
      case OpKind::kCloneBatch:
        OpClone(op, /*lazy=*/false);
        break;
      case OpKind::kCloneLazy:
        OpClone(op, /*lazy=*/true);
        break;
      case OpKind::kTouchUnmapped:
        OpTouchUnmapped(op);
        break;
      case OpKind::kCowWrite:
        WriteCell(Pick(op.dom), op.slot % ReferenceModel::kCells,
                  static_cast<std::uint8_t>(op.value));
        break;
      case OpKind::kCloneReset:
        OpReset(op);
        break;
      case OpKind::kDestroy:
        DestroyDom(Pick(op.dom));
        break;
      case OpKind::kMigrateOut:
        OpMigrateOut(op);
        break;
      case OpKind::kMigrateIn:
        OpMigrateIn(op);
        break;
      case OpKind::kArmFault:
        ArmFault(op.point, op.spec);
        break;
      case OpKind::kDisarmFaults:
        DisarmFaults();
        // Injections may have perturbed untracked paths mid-window; start a
        // fresh exact-comparison epoch.
        ResyncCounters();
        break;
      case OpKind::kDeviceIo:
        OpDevio(op);
        break;
      case OpKind::kAdvanceTime:
        AdvanceTime(op.amount);
        break;
      case OpKind::kSchedAcquire:
        OpSchedAcquire(op);
        break;
      case OpKind::kSchedRelease:
        OpSchedRelease(op);
        break;
    }
  }
  // Advance every in-flight post-copy stream by one manual batch, so lazy
  // children make progress between ops and the oracle sees each partially
  // mapped intermediate state. Scenarios without lazy clones pump nothing
  // and keep their digests byte-identical.
  const std::size_t pumped = sys_->clone_engine().StreamPump(1);
  if (pumped > 0) {
    Expect("clone/streamed_pages", pumped);
    log_ << " p" << pumped;
  }
}

void ScenarioHarness::OpLaunch() {
  auto dom = Launch();
  if (dom.ok()) {
    model_.Launch(*dom);
    Expect("toolstack/domains_booted", 1);
    Expect("hypervisor/domains/created", 1);
  } else {
    // A failed boot unwinds itself (the destroy path's teardown body) with
    // create/destroy churn the counter model does not predict.
    ResyncCounters();
  }
}

void ScenarioHarness::OpClone(const Op& op, bool lazy) {
  DomId parent = Pick(op.dom);
  unsigned workers = options_.force_workers;
  if (workers == 0 && op.workers != 0) {
    workers = 1 + (op.workers - 1) % 8;
    sys_->clone_engine().SetWorkerThreads(workers);
  }
  const unsigned n = 1 + (op.n - 1) % 8;
  const bool would_validate = model_.CloneWouldValidate(parent, guest_.max_clones, n);
  const std::uint64_t rolled_back_before = sys_->metrics().CounterValue("clone/rolled_back");
  // A still-streaming parent finishes its own stream before it clones.
  const std::size_t parent_pending = sys_->clone_engine().PendingStreamPages(parent);

  CloneRequest req(parent, parent, StartInfoMfn(parent), n, lazy);
  if (lazy) {
    // The op's slot hints one tracked page hot, so every lazy scenario
    // exercises both sides of the hot/deferred split on oracle-visible pages.
    req.hot_pages.push_back(
        heap0_ + static_cast<Gfn>(op.slot % ReferenceModel::kTrackedPages));
  }
  auto children = sys_->clone_engine().Clone(req);
  Settle();
  Record(children.status());
  log_ << " parent=" << parent << " n=" << n;

  if (children.ok()) {
    Expect("clone/streamed_pages", parent_pending);
    if (lazy) {
      Expect("clone/lazy/clones", n);
    }
    model_.CloneBatchPlanned(parent, n);
    const std::vector<DomId> born = AdoptChildren(*children);
    for (DomId child : born) {
      model_.CloneChild(parent, child);
    }
    const std::size_t aborted = children->size() - born.size();
    Expect("clone/batches_total", 1);
    Expect("clone/clones_total", n);
    Expect("hypervisor/domains/created", n);
    Expect("xencloned/clones_completed", born.size());
    Expect("xencloned/clones_aborted", aborted);
    // Every stage-2 abort destroys the child, whose destroy hook retires
    // its pending slot and counts a rollback.
    Expect("clone/rolled_back", aborted);
    Expect("hypervisor/domains/destroyed", aborted);
  } else if (!would_validate && !faults_armed_) {
    // Admission-control rejection: no batch was planned, nothing changed.
  } else {
    if (!faults_armed_) {
      // The model admitted the batch, so the failure happened mid-plan
      // (resource exhaustion) and must have been rolled back exactly once.
      const std::uint64_t rolled_back_now = sys_->metrics().CounterValue("clone/rolled_back");
      if (rolled_back_now != rolled_back_before + 1) {
        Fail("counters", "failed clone did not roll back exactly once: " +
                             children.status().ToString());
      }
    }
    // Rollback churns created/destroyed counters; re-baseline.
    ResyncCounters();
  }
}

void ScenarioHarness::OpTouchUnmapped(const Op& op) {
  DomId dom = Pick(op.dom);
  const Domain* d = sys_->hypervisor().FindDomain(dom);
  // Aim at a tracked page the domain still defers (scanning from the op's
  // slot so different slots hit different pages); when the domain defers
  // nothing this degrades to an ordinary tracked-cell write.
  std::uint32_t page = op.slot % ReferenceModel::kTrackedPages;
  for (std::size_t probe = 0; probe < ReferenceModel::kTrackedPages; ++probe) {
    const std::uint32_t candidate =
        static_cast<std::uint32_t>((page + probe) % ReferenceModel::kTrackedPages);
    if (d->p2m[heap0_ + candidate].mfn == kInvalidMfn) {
      page = candidate;
      break;
    }
  }
  WriteCell(dom, page * static_cast<std::uint32_t>(ReferenceModel::kSlotsPerPage),
            static_cast<std::uint8_t>(op.value));
}

void ScenarioHarness::WriteCell(DomId dom, std::uint32_t slot, std::uint8_t value) {
  const std::size_t demand = PredictDemandFaults(dom, CellGfn(slot));
  Status status = sys_->hypervisor().WriteGuestPage(
      dom, CellGfn(slot), ReferenceModel::SlotOffset(slot), &value, 1);
  Settle();
  Record(status);
  log_ << " dom=" << dom << " slot=" << slot;
  if (status.ok()) {
    model_.Write(dom, slot, value);
    Expect("clone/lazy/demand_faults", demand);
  } else {
    if (!faults_armed_ && status.code() != StatusCode::kResourceExhausted) {
      Fail("op-status", "guest write failed without faults armed: " + status.ToString());
    }
    // A failed write can still have materialised some pushes before the
    // injected error hit; re-baseline instead of predicting the partial.
    ResyncCounters();
  }
}

void ScenarioHarness::OpReset(const Op& op) {
  DomId dom = Pick(op.dom);
  const bool can_reset = model_.CanReset(dom);
  // Reset finishes the target's own stream and the streams of its streaming
  // children (their deferred pages reference frames the reset re-shares).
  const std::size_t stream_pending =
      sys_->clone_engine().PendingStreamPages(dom) + PendingChildStreamPages(dom);
  auto restored = sys_->clone_engine().CloneReset(kDom0, dom);
  Settle();
  Record(restored.status());
  log_ << " dom=" << dom;
  if (restored.ok()) {
    Expect("clone/streamed_pages", stream_pending);
    if (!can_reset && !faults_armed_) {
      Fail("op-status", "clone_reset succeeded for a domain the model says has no live parent");
      return;
    }
    const std::size_t predicted = model_.Reset(dom);
    log_ << " restored=" << *restored;
    if (*restored != predicted) {
      Fail("cells", "clone_reset restored " + std::to_string(*restored) +
                        " pages, model predicts " + std::to_string(predicted));
    }
    Expect("clone/reset/count", 1);
    Expect("clone/reset/pages_restored", predicted);
  } else if (can_reset && !faults_armed_) {
    Fail("op-status",
         "clone_reset failed for a resettable clone: " + restored.status().ToString());
  }
}

void ScenarioHarness::DestroyDom(DomId dom) {
  // Destroying the parent of streaming children force-finishes their
  // streams (the frames they defer are about to be released); destroying a
  // streaming child just abandons its own stream.
  const std::size_t stream_pending = PendingChildStreamPages(dom);
  Status status = sys_->toolstack().DestroyDomain(dom);
  Settle();
  Record(status);
  log_ << " dom=" << dom;
  if (sys_->hypervisor().FindDomain(dom) == nullptr) {
    Destroyed(dom, stream_pending);
  } else if (!faults_armed_) {
    Fail("op-status", "destroy left the domain alive: " + status.ToString());
  } else {
    ResyncCounters();
  }
}

void ScenarioHarness::Destroyed(DomId dom, std::size_t stream_pending) {
  model_.Destroy(dom);
  Forget(dom);
  granted_.erase(std::remove(granted_.begin(), granted_.end(), dom), granted_.end());
  Expect("toolstack/domains_destroyed", 1);
  Expect("hypervisor/domains/destroyed", 1);
  Expect("clone/streamed_pages", stream_pending);
}

void ScenarioHarness::OpMigrateOut(const Op& op) {
  DomId dom = Pick(op.dom);
  const bool can_migrate = model_.CanMigrateOut(dom);
  // Begin + Complete back to back: the stream is only kept once the source
  // is gone, exactly like a transfer that landed.
  auto stream = sys_->toolstack().BeginMigrateOut(dom);
  Status status = stream.ok() ? sys_->toolstack().CompleteMigrateOut(dom) : stream.status();
  Settle();
  Record(status);
  log_ << " dom=" << dom;
  if (status.ok()) {
    if (!can_migrate && !faults_armed_) {
      Fail("op-status", "migrate-out accepted a domain with family relations");
      return;
    }
    streams_.push_back(std::move(*stream));
    model_.MigrateOut(dom);
    Forget(dom);
    Expect("toolstack/domains_destroyed", 1);
    Expect("hypervisor/domains/destroyed", 1);
  } else if (can_migrate && !faults_armed_) {
    Fail("op-status", "migrate-out failed for an unrelated domain: " + status.ToString());
  }
}

void ScenarioHarness::OpMigrateIn(const Op& op) {
  const MigrationStream& stream = streams_[op.slot % streams_.size()];
  auto dom = sys_->toolstack().MigrateIn(stream);
  Settle();
  Record(dom.status());
  if (dom.ok()) {
    log_ << " dom=" << *dom;
    live_.push_back(*dom);
    model_.MigrateIn(op.slot % streams_.size(), *dom);
    // Only image-based RestoreDomain counts as "restored"; stream
    // immigration books a plain hypervisor create.
    Expect("hypervisor/domains/created", 1);
  } else {
    ResyncCounters();  // failed immigration unwinds with unmodelled churn
  }
}

void ScenarioHarness::WireScheduler() {
  // Scheduled batches run through the ordinary engine path; the wrapper adds
  // the model/counter bookkeeping OpClone would do for a direct batch and
  // logs the dispatch so batching decisions are part of the digest.
  sched_->SetCloneExecutor([this](const CloneRequest& req) {
    const std::size_t parent_pending =
        sys_->clone_engine().PendingStreamPages(req.parent);
    auto children = sys_->clone_engine().Clone(req);
    log_ << " B" << req.parent << "x" << req.num_children << "t" << sys_->Now().ns() << "s"
         << static_cast<int>(children.status().code());
    if (children.ok()) {
      model_.CloneBatchPlanned(req.parent, req.num_children);
      Expect("clone/streamed_pages", parent_pending);
      Expect("clone/batches_total", 1);
      Expect("clone/clones_total", req.num_children);
      Expect("hypervisor/domains/created", req.num_children);
      Expect("xencloned/clones_completed", req.num_children);
    } else {
      // Mid-plan failures roll back with churn the counter model does not
      // predict (same as a failed direct batch).
      ResyncCounters();
    }
    return children;
  });
}

void ScenarioHarness::OnDestroy(DomId dom) {
  if (!in_release_) {
    return;
  }
  // The destroy is committed and nothing has been released yet, so the
  // streams this destroy force-finishes are still pending.
  log_ << " E" << dom;
  Destroyed(dom, PendingChildStreamPages(dom));
}

void ScenarioHarness::OpSchedAcquire(const Op& op) {
  DomId parent = Pick(op.dom);
  // Deliberately allowed past max_queue_depth (4) so scenarios can force a
  // deterministic wholesale queue-full rejection.
  const unsigned n = 1 + (op.n - 1) % 6;
  CloneRequest req;
  req.caller = kDom0;
  req.parent = parent;
  req.start_info_mfn = StartInfoMfn(parent);
  req.num_children = n;

  auto outcomes = std::make_shared<std::vector<Result<DomId>>>();
  Status status = sched_->Acquire(
      req, [outcomes](Result<DomId> r) { outcomes->push_back(std::move(r)); });
  // The 1 ms window, the batch itself and the 100 ms ticket timeouts all
  // drain here, so every grant outcome is in `outcomes` after Settle.
  Settle();
  Record(status);
  log_ << " parent=" << parent << " n=" << n;

  if (!status.ok()) {
    const bool oversized = n > sched_->config().max_queue_depth;
    if (!faults_armed_) {
      if (!oversized) {
        Fail("op-status",
             "sched acquire rejected a request the empty queue could take: " + status.ToString());
      } else if (status.code() != StatusCode::kResourceExhausted) {
        Fail("op-status", "queue-full rejection carries the wrong code: " + status.ToString());
      }
    }
    return;
  }

  for (Result<DomId>& r : *outcomes) {
    if (!r.ok()) {
      log_ << " e" << static_cast<int>(r.status().code());
      continue;
    }
    DomId child = *r;
    if (std::find(live_.begin(), live_.end(), child) != live_.end()) {
      // Warm grant: the child never left the live set; its parked state was
      // already reset at release time.
      log_ << " w" << child;
    } else {
      const Domain* d = sys_->hypervisor().FindDomain(child);
      if (d == nullptr) {
        Fail("live-set", "scheduler granted a dead domain " + std::to_string(child));
        return;
      }
      live_.push_back(child);
      model_.CloneChild(d->parent, child);
      log_ << " c" << child;
    }
    granted_.push_back(child);
  }
}

void ScenarioHarness::OpSchedRelease(const Op& op) {
  DomId child = granted_[op.slot % granted_.size()];
  const bool can_reset = model_.CanReset(child);
  // Release finishes the child's own stream before parking; the reset inside
  // it also finishes any streams of the child's own lazy children.
  const std::size_t stream_pending =
      sys_->clone_engine().PendingStreamPages(child) + PendingChildStreamPages(child);
  in_release_ = true;
  auto outcome = sched_->Release(child);
  in_release_ = false;
  Settle();
  Record(outcome.status());
  log_ << " dom=" << child;
  if (!outcome.ok()) {
    // Legitimate refusals exist without faults: a child orphaned by its
    // parent's destruction is no longer a clone. Only a child the model says
    // is resettable must be accepted.
    if (can_reset && !faults_armed_) {
      Fail("op-status",
           "sched release failed for a resettable clone: " + outcome.status().ToString());
    }
    return;
  }
  if (outcome->reset_applied) {
    Expect("clone/streamed_pages", stream_pending);
    const std::size_t predicted = model_.Reset(child);
    log_ << " restored=" << outcome->pages_restored << (outcome->parked ? " parked" : " evicted");
    if (outcome->pages_restored != predicted) {
      Fail("cells", "sched release restored " + std::to_string(outcome->pages_restored) +
                        " pages, model predicts " + std::to_string(predicted));
    }
    Expect("clone/reset/count", 1);
    Expect("clone/reset/pages_restored", predicted);
  } else if (can_reset && !faults_armed_) {
    Fail("op-status", "sched release fell back to destroy for a resettable clone");
  }
  if (outcome->parked) {
    // Parked children leave the grant list; they come back via a warm hit.
    granted_.erase(std::remove(granted_.begin(), granted_.end(), child), granted_.end());
  }
  // Non-parked outcomes were destroyed inside Release; OnDestroy already
  // scrubbed every list.
}

void ScenarioHarness::OpDevio(const Op& op) {
  DomId dom = Pick(op.dom);
  const std::uint32_t key = op.slot % 8;
  std::string value = EncodeDevioValue(op.value);
  Status status = sys_->xenstore().Write(DevioPath(dom, key), value);
  Settle();
  Record(status);
  log_ << " dom=" << dom << " key=" << key;
  if (status.ok()) {
    model_.DeviceIo(dom, key, std::move(value));
  } else if (!faults_armed_) {
    Fail("op-status", "xenstore data write failed without faults armed: " + status.ToString());
  }
}

std::string ScenarioHarness::CheckLiveSet() {
  std::size_t guests = 0;
  for (DomId id : sys_->hypervisor().DomainIds()) {
    if (id == kDom0) {
      continue;
    }
    ++guests;
    if (model_.Find(id) == nullptr) {
      return "domain " + std::to_string(id) + " alive in the hypervisor but not in the model";
    }
  }
  if (guests != model_.domains().size()) {
    return "hypervisor has " + std::to_string(guests) + " guests, model has " +
           std::to_string(model_.domains().size());
  }
  return "";
}

std::string ScenarioHarness::CheckTopology() {
  for (const auto& [id, m] : model_.domains()) {
    const Domain* d = sys_->hypervisor().FindDomain(id);
    if (d == nullptr) {
      return "model domain " + std::to_string(id) + " missing from hypervisor";
    }
    if (d->parent != m.parent) {
      return "dom " + std::to_string(id) + " parent=" + std::to_string(d->parent) +
             ", model says " + std::to_string(m.parent);
    }
    if (d->track_dirty != m.is_clone) {
      return "dom " + std::to_string(id) + " track_dirty mismatch";
    }
    if (d->clones_created != m.clones_created) {
      return "dom " + std::to_string(id) + " clones_created=" +
             std::to_string(d->clones_created) + ", model says " +
             std::to_string(m.clones_created);
    }
    if (d->IsPaused() || d->blocked_in_clone) {
      return "dom " + std::to_string(id) + " still paused/blocked after settle";
    }
    if (d->tot_pages() != guest_pages_) {
      return "dom " + std::to_string(id) + " has " + std::to_string(d->tot_pages()) +
             " pages, expected " + std::to_string(guest_pages_);
    }
    for (std::size_t page = 0; page < ReferenceModel::kTrackedPages; ++page) {
      const P2mEntry& entry = d->p2m[heap0_ + page];
      if (entry.writable != m.writable[page]) {
        return "dom " + std::to_string(id) + " tracked page " + std::to_string(page) +
               " writable=" + (entry.writable ? "1" : "0") + ", model says " +
               (m.writable[page] ? "1" : "0");
      }
    }
  }
  return "";
}

std::string ScenarioHarness::CheckCells() {
  for (const auto& [id, m] : model_.domains()) {
    for (std::uint32_t slot = 0; slot < ReferenceModel::kCells; ++slot) {
      std::string msg =
          CheckCell(id, slot, CellGfn(slot), ReferenceModel::SlotOffset(slot), m.cells[slot]);
      if (!msg.empty()) {
        return msg;
      }
    }
  }
  return "";
}

std::string ScenarioHarness::CheckXenstore() {
  const XenstoreDaemon& xs = sys_->xenstore();
  for (const auto& [id, m] : model_.domains()) {
    if (!xs.Exists(XsDomainPath(id))) {
      return "live dom " + std::to_string(id) + " has no xenstore subtree";
    }
    for (const auto& [key, value] : m.xs_data) {
      const std::string path = DevioPath(id, key);
      const std::string* got = xs.PeekValue(path);
      if (got == nullptr) {
        return "xenstore mirror missing " + path;
      }
      if (*got != value) {
        return "xenstore mirror diverged at " + path + ": '" + *got + "' vs model '" + value +
               "'";
      }
    }
  }
  for (DomId id : dead_) {
    if (xs.Exists(XsDomainPath(id))) {
      return "destroyed dom " + std::to_string(id) + " still has a xenstore subtree";
    }
  }
  return "";
}

std::string ScenarioHarness::CheckCounters() {
  if (faults_armed_) {
    // Probability faults can fire inside any op while armed; comparisons
    // resume from a fresh baseline after the disarm op.
    ResyncCounters();
    return "";
  }
  for (const auto& [name, want] : expected_) {
    const std::uint64_t got = sys_->metrics().CounterValue(name);
    if (got != want) {
      return "counter " + name + " = " + std::to_string(got) + ", model expects " +
             std::to_string(want);
    }
  }
  return "";
}

}  // namespace

RunResult RunScenario(const Scenario& scenario, const RunOptions& options) {
  return ScenarioHarness(scenario, options).Run();
}

}  // namespace nephele
