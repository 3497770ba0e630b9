#include "src/faas/backend.h"

#include <algorithm>
#include <memory>

#include "src/apps/faas_app.h"
#include "src/base/log.h"
#include "src/load/dispatch.h"
#include "src/sched/scheduler.h"

namespace nephele {

// ---------------------------------------------------------------------------
// ContainerBackend
// ---------------------------------------------------------------------------

void ContainerBackend::LaunchOne(SimDuration latency) {
  ++total_;
  SimTime ready_at = loop_.Now() + latency;
  // No container can start before the node finished pulling the function
  // image (which the first instance's start latency includes).
  if (ready_at < image_pulled_at_) {
    ready_at = image_pulled_at_ + SimDuration::Millis(400);
  }
  loop_.PostAt(ready_at, [this] {
    ++ready_;
    readiness_.push_back(loop_.Now().ToSeconds());
  });
}

Status ContainerBackend::Deploy() {
  if (total_ != 0) {
    return ErrFailedPrecondition("already deployed");
  }
  image_pulled_at_ = loop_.Now() + config_.first_start_latency;
  LaunchOne(config_.first_start_latency);
  return Status::Ok();
}

Status ContainerBackend::ScaleUp() {
  if (total_ == 0) {
    return ErrFailedPrecondition("not deployed");
  }
  LaunchOne(config_.start_latency);
  return Status::Ok();
}

std::size_t ContainerBackend::MemoryBytes() const {
  if (total_ == 0) {
    return 0;
  }
  return config_.first_instance_bytes + (total_ - 1) * config_.instance_bytes;
}

// ---------------------------------------------------------------------------
// UnikernelBackend
// ---------------------------------------------------------------------------

Status UnikernelBackend::Deploy() {
  if (!instances_.empty()) {
    return ErrFailedPrecondition("already deployed");
  }
  DomainConfig cfg;
  cfg.name = "faas-fn";
  cfg.memory_mb = config_.memory_mb;
  // Unikraft + Python 3.7 + newlib + lwip: ~6 MB binary (Sec. 7.3).
  cfg.image_text_pages = 1400;
  cfg.image_data_pages = 260;
  cfg.max_clones = 1024;
  cfg.with_p9fs = true;  // Python runtime shared via the 9pfs root
  NEPHELE_ASSIGN_OR_RETURN(DomId dom,
                           manager_.Launch(cfg, std::make_unique<FaasApp>(FaasAppConfig{})));
  instances_.push_back(dom);
  // Interpreter warm-up on the first instance (touches resident memory).
  EventLoop& loop = manager_.system().loop();
  loop.Post(SimDuration::Millis(800), [this, dom] {
    GuestContext* ctx = manager_.ContextOf(dom);
    if (ctx != nullptr) {
      (void)ctx->arena().Allocate(config_.warmup_pages * kPageSize, /*resident=*/true);
    }
  });
  loop.Post(config_.first_report_latency, [this, dom] { ReportReady(dom); });
  return Status::Ok();
}

void UnikernelBackend::ReportReady(DomId dom) {
  ++ready_;
  readiness_.push_back(manager_.system().loop().Now().ToSeconds());
  // Only instances still in the fleet join the dispatcher's server set — a
  // scale-down may have retired this one while its readiness was in flight.
  if (dispatcher_ != nullptr &&
      std::find(instances_.begin(), instances_.end(), dom) != instances_.end()) {
    dispatcher_->AddFleetInstance(dom);
  }
}

void UnikernelBackend::AttachDispatcher(RequestCloneDispatcher* dispatcher) {
  dispatcher_ = dispatcher;
  if (dispatcher != nullptr) {
    dispatcher->SetFleetMode(true);
  }
}

void UnikernelBackend::AttachScheduler(CloneScheduler* sched) {
  sched_ = sched;
  if (sched == nullptr) {
    return;
  }
  // Scheduled batches still go through GuestManager so children get their
  // runtime plumbing; the continuation only warms the interpreter — instance
  // bookkeeping happens per grant, in OnInstanceGranted.
  std::size_t warmup_pages = config_.warmup_pages;
  sched->SetCloneExecutor([this, warmup_pages](const CloneRequest& req) {
    return manager_.ForkChildren(
        req.parent, req.num_children,
        [warmup_pages](GuestContext& ctx, GuestApp& app, const ForkResult& r) {
          (void)app;
          if (r.is_child) {
            (void)ctx.arena().Allocate(warmup_pages * kPageSize, /*resident=*/true);
          }
        },
        req.caller);
  });
  // Evicted pool children are full guests; tear them down through the
  // manager so their runtime state goes too.
  sched->SetEvictFn([this](DomId dom) { (void)manager_.Destroy(dom); });
}

void UnikernelBackend::OnInstanceGranted(DomId dom, bool warm) {
  instances_.push_back(dom);
  // A warm child's interpreter state survived CloneReset-then-park; it skips
  // pod creation and re-warming entirely.
  SimDuration latency = warm ? config_.warm_report_latency : config_.k8s_report_latency;
  manager_.system().loop().Post(latency, [this, dom] { ReportReady(dom); });
}

Status UnikernelBackend::ScaleDown() {
  if (sched_ == nullptr) {
    return ErrUnimplemented("scale-down requires an attached scheduler");
  }
  if (instances_.size() <= 1) {
    return ErrFailedPrecondition("nothing to scale down");
  }
  // Retire the youngest instance the request layer can spare; the root
  // (front) is never released. An instance serving a *redundant* duplicate
  // (its request has another one unfinished) may be retired — its duplicate
  // is cancelled — but the holder of a request's only unfinished duplicate
  // is pinned until the request resolves.
  std::size_t victim_idx = instances_.size();
  for (std::size_t i = instances_.size(); i-- > 1;) {
    if (dispatcher_ == nullptr || !dispatcher_->InstancePinned(instances_[i])) {
      victim_idx = i;
      break;
    }
  }
  if (victim_idx >= instances_.size()) {
    return ErrUnavailable(
        "every retirable instance holds the only unfinished duplicate of a request");
  }
  DomId victim = instances_[victim_idx];
  instances_.erase(instances_.begin() + static_cast<std::ptrdiff_t>(victim_idx));
  if (ready_ > 0) {
    --ready_;
  }
  if (dispatcher_ != nullptr) {
    dispatcher_->HandleRetiredInstance(victim);
  }
  NEPHELE_ASSIGN_OR_RETURN(ReleaseOutcome outcome, sched_->Release(victim));
  (void)outcome;
  return Status::Ok();
}

Status UnikernelBackend::ScaleUp() {
  if (instances_.empty()) {
    return ErrFailedPrecondition("not deployed");
  }
  DomId root = instances_.front();
  if (sched_ != nullptr) {
    const Domain* d = manager_.system().hypervisor().FindDomain(root);
    if (d == nullptr || d->start_info_gfn == kInvalidGfn) {
      return ErrInternal("root domain incomplete");
    }
    CloneRequest req;
    req.caller = kDom0;
    req.parent = root;
    req.start_info_mfn = d->p2m[d->start_info_gfn].mfn;
    req.num_children = 1;
    // Whether this grant comes warm is decided synchronously inside
    // Acquire; the flag is read back (via the warm-hit counter) before the
    // loop delivers the grant.
    MetricsRegistry& metrics = manager_.system().metrics();
    const std::uint64_t hits_before = metrics.CounterValue("sched/warm_hits");
    auto warm = std::make_shared<bool>(false);
    Status s = sched_->Acquire(req, [this, warm](Result<DomId> r) {
      if (r.ok()) {
        OnInstanceGranted(*r, *warm);
      }
    });
    if (!s.ok()) {
      return s;
    }
    *warm = metrics.CounterValue("sched/warm_hits") > hits_before;
    return Status::Ok();
  }
  UnikernelBackend* self = this;
  std::size_t warmup_pages = config_.warmup_pages;
  SimDuration report_latency = config_.k8s_report_latency;
  return manager_.Fork(
      root,
      1,
      [self, warmup_pages, report_latency](GuestContext& ctx, GuestApp& app,
                                           const ForkResult& r) {
        (void)app;
        if (!r.is_child) {
          return;
        }
        self->instances_.push_back(ctx.id());
        // The clone warms its own interpreter state (COW divergence).
        (void)ctx.arena().Allocate(warmup_pages * kPageSize, /*resident=*/true);
        ctx.manager().system().loop().Post(
            report_latency, [self, dom = ctx.id()] { self->ReportReady(dom); });
      },
      /*caller=*/kDom0);
}

std::size_t UnikernelBackend::MemoryBytes() const {
  std::size_t bytes = instances_.size() * config_.services_bytes_per_instance;
  Hypervisor& hv = manager_.system().hypervisor();
  for (DomId dom : instances_) {
    bytes += hv.DomainOwnedFrames(dom) * kPageSize;
  }
  // Frames the family shares COW sit in dom_cow and are charged once (the
  // whole point of Fig. 10: subsequent instances add only their private
  // divergence).
  bytes += hv.frames().shared_frames() * kPageSize;
  return bytes;
}

}  // namespace nephele