#include "src/guest/guest_manager.h"

#include "src/base/log.h"
#include "src/core/fabric.h"

namespace nephele {

// ---------------------------------------------------------------------------
// GuestContext
// ---------------------------------------------------------------------------

GuestContext::GuestContext(GuestManager& manager, DomId dom) : manager_(manager), dom_(dom) {}

Status GuestContext::Fork(unsigned num_children, ForkContinuation continuation) {
  return manager_.Fork(dom_, num_children, std::move(continuation));
}

Ipv4Addr GuestContext::ip() const {
  return net_ != nullptr && net_->frontend() != nullptr ? net_->frontend()->ip() : 0;
}

VbdFrontend* GuestContext::block() {
  GuestDevices* devices = manager_.system().toolstack().FindDevices(dom_);
  return devices != nullptr ? devices->vbd.get() : nullptr;
}

Status GuestContext::ConsoleWrite(const std::string& text) {
  return manager_.system().devices().console().GuestWrite(dom_, text);
}

SimTime GuestContext::Now() const { return manager_.system().loop().Now(); }

void GuestContext::Post(SimDuration delay, std::function<void(GuestContext&)> fn) {
  GuestManager& mgr = manager_;
  DomId dom = dom_;
  mgr.system().loop().Post(delay, [&mgr, dom, fn = std::move(fn)] {
    GuestContext* ctx = mgr.ContextOf(dom);
    if (ctx != nullptr) {
      fn(*ctx);
    }
  });
}

void GuestContext::Exit() {
  GuestManager& mgr = manager_;
  DomId dom = dom_;
  mgr.system().loop().Post(SimDuration::Micros(50), [&mgr, dom] { (void)mgr.Destroy(dom); });
}

// ---------------------------------------------------------------------------
// GuestManager
// ---------------------------------------------------------------------------

GuestManager::GuestManager(Host& system) : system_(system) {
  system_.clone_engine().AddObserver(this);
}

GuestManager::~GuestManager() { system_.clone_engine().RemoveObserver(this); }

void GuestManager::OnDestroy(DomId dom) {
  guests_.erase(dom);
  auto pit = pending_child_parent_.find(dom);
  if (pit == pending_child_parent_.end()) {
    return;
  }
  auto fit = pending_forks_.find(pit->second);
  pending_child_parent_.erase(pit);
  if (fit != pending_forks_.end()) {
    fit->second.snapshots.erase(dom);
    std::erase(fit->second.children, dom);
  }
}

std::unique_ptr<GuestContext> GuestManager::BuildContext(DomId dom, const DomainConfig& config,
                                                         const GuestContext* parent_ctx) {
  auto ctx = std::make_unique<GuestContext>(*this, dom);
  GuestDevices* devices = system_.toolstack().FindDevices(dom);

  auto stack = std::make_unique<MiniStack>(
      devices != nullptr && devices->net != nullptr ? devices->net.get() : nullptr);
  if (parent_ctx != nullptr && parent_ctx->net_ != nullptr) {
    stack->CopyStateFrom(*parent_ctx->net_);
  }
  ctx->AttachNet(std::move(stack));

  const GuestMemoryLayout layout = ComputeGuestLayout(config);
  if (parent_ctx != nullptr && parent_ctx->arena_ != nullptr) {
    // The child's heap has the same layout and allocation metadata as the
    // parent's (it lives in cloned pages); only the p2m it operates on
    // differs.
    auto arena = std::make_unique<GuestArena>(*parent_ctx->arena_);
    arena->RebindToDomain(dom);
    ctx->AttachArena(std::move(arena));
  } else {
    ctx->AttachArena(std::make_unique<GuestArena>(
        system_.hypervisor(), dom, static_cast<Gfn>(layout.heap_first_gfn), layout.heap_pages));
  }

  if (devices != nullptr && devices->p9 != nullptr) {
    P9Client fs(devices->p9, dom, devices->p9_root_fid);
    if (parent_ctx != nullptr) {
      fs = parent_ctx->fs_;
      fs.RebindToDomain(dom);
    }
    ctx->AttachFs(fs);
  }
  return ctx;
}

void GuestManager::WireDelivery(DomId /*dom*/, GuestInstance& instance) {
  GuestApp* app = instance.app.get();
  GuestContext* ctx = instance.ctx.get();
  MiniStack* stack = &ctx->net();
  if (stack->frontend() != nullptr) {
    stack->frontend()->set_receive_handler(
        [stack](const Packet& p) { stack->OnFrameReceived(p); });
  }
  stack->SetDeliveryHandler([app, ctx](const Packet& p) { app->OnPacket(*ctx, p); });
}

GuestManager::GuestInstance& GuestManager::Adopt(DomId dom, const DomainConfig& config,
                                                std::unique_ptr<GuestApp> app) {
  GuestInstance instance;
  instance.app = std::move(app);
  instance.ctx = BuildContext(dom, config, /*parent_ctx=*/nullptr);
  auto [it, inserted] = guests_.emplace(dom, std::move(instance));
  WireDelivery(dom, it->second);
  return it->second;
}

void GuestManager::ScheduleBoot(DomId dom) {
  // Unikernel init runs inside the guest; OnBoot fires once it is done.
  system_.loop().Post(system_.costs().guest_boot, [this, dom] {
    auto git = guests_.find(dom);
    if (git != guests_.end()) {
      git->second.app->OnBoot(*git->second.ctx);
    }
  });
}

Result<DomId> GuestManager::Launch(const DomainConfig& config, std::unique_ptr<GuestApp> app) {
  NEPHELE_ASSIGN_OR_RETURN(DomId dom, system_.toolstack().CreateDomain(config));
  Adopt(dom, config, std::move(app));
  ScheduleBoot(dom);
  return dom;
}

Result<DomId> GuestManager::Restore(const DomainImage& image, std::unique_ptr<GuestApp> app) {
  NEPHELE_ASSIGN_OR_RETURN(DomId dom, system_.toolstack().RestoreDomain(image));
  Adopt(dom, image.config, std::move(app));
  ScheduleBoot(dom);
  return dom;
}

Status GuestManager::Fork(DomId parent, unsigned num_children, ForkContinuation continuation,
                          DomId caller) {
  return ForkChildren(parent, num_children, std::move(continuation), caller).status();
}

Result<std::vector<DomId>> GuestManager::ForkChildren(DomId parent, unsigned num_children,
                                                      ForkContinuation continuation,
                                                      DomId caller) {
  auto git = guests_.find(parent);
  if (git == guests_.end()) {
    return ErrNotFound("no such guest");
  }
  if (pending_forks_.contains(parent)) {
    return ErrFailedPrecondition("fork already in flight for this guest");
  }
  const Domain* d = system_.hypervisor().FindDomain(parent);
  if (d == nullptr || d->start_info_gfn == kInvalidGfn) {
    return ErrInternal("parent domain incomplete");
  }
  CloneRequest req;
  req.caller = caller == kDomInvalid ? parent : caller;
  req.parent = parent;
  req.start_info_mfn = d->p2m[d->start_info_gfn].mfn;
  req.num_children = num_children;

  NEPHELE_ASSIGN_OR_RETURN(std::vector<DomId> children, system_.clone_engine().Clone(req));

  PendingFork pending;
  pending.continuation = std::move(continuation);
  pending.children = children;
  for (DomId child : children) {
    // The snapshot is the child's execution state at CLONEOP time.
    pending.snapshots[child] = git->second.app->CloneApp();
    pending_child_parent_[child] = parent;
  }
  pending_forks_[parent] = std::move(pending);
  return children;
}

void GuestManager::MaterialiseChild(DomId child, DomId parent, PendingFork& pending) {
  auto sit = pending.snapshots.find(child);
  if (sit == pending.snapshots.end()) {
    return;
  }
  const DomainConfig* cfg = system_.toolstack().FindConfig(child);
  GuestContext* parent_ctx = ContextOf(parent);
  GuestInstance instance;
  instance.app = std::move(sit->second);
  instance.ctx = BuildContext(child, cfg != nullptr ? *cfg : DomainConfig{}, parent_ctx);
  pending.snapshots.erase(sit);
  auto [it, inserted] = guests_.emplace(child, std::move(instance));
  WireDelivery(child, it->second);

  if (pending.continuation) {
    ForkResult result;
    result.is_child = true;
    pending.continuation(*it->second.ctx, *it->second.app, result);
  }
}

void GuestManager::OnResume(DomId dom, bool is_child) {
  if (is_child) {
    auto pit = pending_child_parent_.find(dom);
    if (pit == pending_child_parent_.end()) {
      return;
    }
    const DomId parent = pit->second;
    pending_child_parent_.erase(pit);
    auto fit = pending_forks_.find(parent);
    if (fit != pending_forks_.end()) {
      MaterialiseChild(dom, parent, fit->second);
    }
    return;
  }
  // Parent resumed: every child completed its second stage.
  auto fit = pending_forks_.find(dom);
  if (fit == pending_forks_.end()) {
    return;
  }
  // Children configured to start paused were not resumed; materialise them
  // now so they exist (paused) for the host to drive (fuzzing). Iterate a
  // copy: a continuation that destroys a sibling edits the list.
  const std::vector<DomId> children = fit->second.children;
  for (DomId child : children) {
    if (pending_child_parent_.erase(child) > 0) {
      MaterialiseChild(child, dom, fit->second);
    }
  }
  PendingFork pending = std::move(fit->second);
  pending_forks_.erase(fit);
  if (pending.continuation) {
    auto git = guests_.find(dom);
    if (git != guests_.end()) {
      ForkResult result;
      result.is_child = false;
      result.children = pending.children;
      pending.continuation(*git->second.ctx, *git->second.app, result);
    }
  }
}

Result<DomId> GuestManager::MigrateTo(ClusterFabric& fabric, GuestManager& target, DomId dom) {
  if (!fabric.Contains(system_) || !fabric.Contains(target.system_)) {
    return ErrInvalidArgument("guest manager's host is not in this fabric");
  }
  auto it = guests_.find(dom);
  if (it == guests_.end()) {
    return ErrNotFound("no such guest");
  }
  // Snapshot the app and the runtime state that lives in guest memory
  // (socket bindings, heap bookkeeping) before the source is torn down.
  std::unique_ptr<GuestApp> app = it->second.app->CloneApp();
  MiniStack stack_snapshot(nullptr);
  stack_snapshot.CopyStateFrom(it->second.ctx->net());
  GuestArena arena_snapshot(it->second.ctx->arena());
  // The source's teardown ends its guest (OnDestroy).
  NEPHELE_ASSIGN_OR_RETURN(DomId new_dom,
                           fabric.Migrate(dom, system_.index(), target.system_.index()));

  GuestInstance& instance =
      target.Adopt(new_dom, *target.system_.toolstack().FindConfig(new_dom), std::move(app));
  instance.ctx->net().CopyStateFrom(stack_snapshot);
  instance.ctx->arena().AdoptAllocationsFrom(arena_snapshot);
  return new_dom;
}

Status GuestManager::Destroy(DomId dom) {
  if (!Alive(dom)) {
    return ErrNotFound("no such guest");
  }
  return system_.toolstack().DestroyDomain(dom);
}

GuestApp* GuestManager::AppOf(DomId dom) {
  auto it = guests_.find(dom);
  return it == guests_.end() ? nullptr : it->second.app.get();
}

GuestContext* GuestManager::ContextOf(DomId dom) {
  auto it = guests_.find(dom);
  return it == guests_.end() ? nullptr : it->second.ctx.get();
}

}  // namespace nephele
