#include "src/faas/backend.h"

#include <memory>

#include "src/apps/faas_app.h"
#include "src/base/log.h"
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
  image_pulled_at_ = loop_.Now() + kFirstStartLatency;
  LaunchOne(kFirstStartLatency);
  return Status::Ok();
}

Status ContainerBackend::ScaleUp() {
  if (total_ == 0) {
    return ErrFailedPrecondition("not deployed");
  }
  LaunchOne(kStartLatency);
  return Status::Ok();
}

std::size_t ContainerBackend::MemoryBytes() const {
  if (total_ == 0) {
    return 0;
  }
  return kFirstInstanceBytes + (total_ - 1) * kInstanceBytes;
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
  cfg.memory_mb = kMemoryMb;
  // Unikraft + Python 3.7 + newlib + lwip: ~6 MB binary (Sec. 7.3).
  cfg.image_text_pages = 1400;
  cfg.image_data_pages = 260;
  cfg.max_clones = 1024;
  cfg.with_p9fs = true;  // Python runtime shared via the 9pfs root
  NEPHELE_ASSIGN_OR_RETURN(DomId dom,
                           manager_.Launch(cfg, std::make_unique<FaasApp>(FaasAppConfig{})));
  instances_.push_back(dom);
  // Interpreter warm-up on the first instance (touches resident memory).
  manager_.system().loop().Post(SimDuration::Millis(800), [this, dom] {
    GuestContext* ctx = manager_.ContextOf(dom);
    if (ctx != nullptr) {
      WarmUp(*ctx);
    }
  });
  PostReport(dom, kFirstReportLatency);
  return Status::Ok();
}

void UnikernelBackend::WarmUp(GuestContext& ctx) {
  (void)ctx.arena().Allocate(kWarmupPages * kPageSize, /*resident=*/true);
}

void UnikernelBackend::OnInstanceGranted(DomId dom, bool warm) {
  instances_.push_back(dom);
  // A warm child's interpreter state survived CloneReset-then-park; it skips
  // pod creation and re-warming entirely.
  PostReport(dom, warm ? kWarmReportLatency : kK8sReportLatency);
}

void UnikernelBackend::PostReport(DomId dom, SimDuration latency) {
  EventLoop& loop = manager_.system().loop();
  unreported_[dom] = loop.Post(latency, [this, &loop, dom] {
    unreported_.erase(dom);
    readiness_.push_back(loop.Now().ToSeconds());
  });
}

void UnikernelBackend::AttachScheduler(CloneScheduler& sched) {
  sched_ = &sched;
  // Scheduled batches still go through GuestManager so children get their
  // runtime plumbing; the continuation only warms the interpreter — instance
  // bookkeeping happens per grant, in OnInstanceGranted.
  sched.SetCloneExecutor([this](const CloneRequest& req) {
    return manager_.ForkChildren(
        req.parent, req.num_children,
        [this](GuestContext& ctx, GuestApp& app, const ForkResult& r) {
          (void)app;
          if (r.is_child) {
            WarmUp(ctx);
          }
        },
        req.caller);
  });
}

Status UnikernelBackend::ScaleDown() {
  if (sched_ == nullptr) {
    return ErrUnimplemented("scale-down requires an attached scheduler");
  }
  if (instances_.size() <= 1) {
    return ErrFailedPrecondition("nothing to scale down");
  }
  // Retire the youngest instance; the root (front) is never released. A
  // report still in flight would count the retired instance (or, after a
  // warm re-grant of the same domain, count it twice): drop it.
  const DomId victim = instances_.back();
  instances_.pop_back();
  auto report = unreported_.find(victim);
  if (report != unreported_.end()) {
    (void)manager_.system().loop().Cancel(report->second);
    unreported_.erase(report);
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
  return manager_.Fork(
      root,
      1,
      [this](GuestContext& ctx, GuestApp& app, const ForkResult& r) {
        (void)app;
        if (r.is_child) {
          // The clone warms its own interpreter state (COW divergence)
          // before it joins the fleet.
          WarmUp(ctx);
          OnInstanceGranted(ctx.id(), /*warm=*/false);
        }
      },
      /*caller=*/kDom0);
}

std::size_t UnikernelBackend::MemoryBytes() const {
  std::size_t bytes = instances_.size() * kServicesBytesPerInstance;
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