// GuestManager: hosts the unikernel runtimes — one (GuestApp, GuestContext)
// pair per domain — and implements fork semantics on top of the clone
// engine: app snapshot at CLONEOP time, child materialisation when the
// second stage completes, and continuation dispatch on both sides. Guests
// move between hosts only through their ClusterFabric (MigrateTo). A guest
// lives exactly as long as its domain, whoever destroys the domain.

#ifndef SRC_GUEST_GUEST_MANAGER_H_
#define SRC_GUEST_GUEST_MANAGER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/system.h"
#include "src/guest/guest_app.h"
#include "src/guest/guest_context.h"
#include "src/obs/clone_observer.h"

namespace nephele {

class ClusterFabric;

// The guest runtime registers on the clone engine like any other observer:
// OnResume drives fork continuation dispatch on both sides, OnDestroy ends a
// guest.
class GuestManager : public CloneObserver {
 public:
  explicit GuestManager(Host& system);
  ~GuestManager() override;

  Host& system() { return system_; }

  // Boots a domain and schedules app->OnBoot() after the guest boot delay.
  Result<DomId> Launch(const DomainConfig& config, std::unique_ptr<GuestApp> app);

  // Restores a saved image; the app is re-instantiated and OnBoot() runs
  // again (the Fig. 4 restore methodology measures time-to-ready).
  Result<DomId> Restore(const DomainImage& image, std::unique_ptr<GuestApp> app);

  // fork(): clones `parent` n times. `caller` is the requesting domain —
  // the parent for the guest path, kDom0 for host-triggered cloning
  // (fuzzing). The continuation may be null for host-driven clones.
  Status Fork(DomId parent, unsigned num_children, ForkContinuation continuation,
              DomId caller = kDomInvalid);

  // Fork variant returning the created child ids (known synchronously after
  // CLONEOP stage 1; guest state still materialises asynchronously, exactly
  // like Fork). The clone scheduler uses this as its executor so it can map
  // batch members back to the requests they serve.
  Result<std::vector<DomId>> ForkChildren(DomId parent, unsigned num_children,
                                          ForkContinuation continuation,
                                          DomId caller = kDomInvalid);

  // Destroys a guest's domain through the toolstack; the guest goes with it
  // (OnDestroy). kNotFound when `dom` is not a guest.
  Status Destroy(DomId dom);

  // Moves a guest to the host `target` runs on: ClusterFabric::Migrate
  // carries the domain over the fabric's link (stop-and-copy, with the
  // fabric's clock hand-offs and rollback), and the app resumes on the
  // target with its state intact. kInvalidArgument when either manager's
  // host is not one of `fabric`'s; refused for family members (Sec. 8).
  Result<DomId> MigrateTo(ClusterFabric& fabric, GuestManager& target, DomId dom);

  GuestApp* AppOf(DomId dom);
  GuestContext* ContextOf(DomId dom);
  bool Alive(DomId dom) const { return guests_.contains(dom); }
  std::size_t NumGuests() const { return guests_.size(); }

  // CloneObserver: delivered through the event loop when a domain really
  // resumes after cloning. A child materialises; a parent's batch is over.
  void OnResume(DomId dom, bool is_child) override;

  // CloneObserver: the guest of a dying domain ends. A fork child still
  // waiting to materialise drops its snapshot instead; the parent-side
  // continuation still runs (with that child absent) once the batch settles.
  void OnDestroy(DomId dom) override;

 private:
  friend class GuestContext;

  struct GuestInstance {
    std::unique_ptr<GuestApp> app;
    std::unique_ptr<GuestContext> ctx;
  };
  struct PendingFork {
    ForkContinuation continuation;
    std::map<DomId, std::unique_ptr<GuestApp>> snapshots;
    std::vector<DomId> children;
  };

  // Registers the runtime of a domain the toolstack just built (launch,
  // restore, immigration): context, app and packet delivery.
  GuestInstance& Adopt(DomId dom, const DomainConfig& config, std::unique_ptr<GuestApp> app);
  // Schedules app->OnBoot() after the guest boot delay.
  void ScheduleBoot(DomId dom);
  // Builds a child's guest from its snapshot and runs the child-side
  // continuation; the caller already dropped it from pending_child_parent_.
  void MaterialiseChild(DomId child, DomId parent, PendingFork& pending);
  // Builds the runtime plumbing (stack, arena, fs) for a domain.
  std::unique_ptr<GuestContext> BuildContext(DomId dom, const DomainConfig& config,
                                             const GuestContext* parent_ctx);
  void WireDelivery(DomId dom, GuestInstance& instance);

  Host& system_;
  std::map<DomId, GuestInstance> guests_;
  std::map<DomId, PendingFork> pending_forks_;   // keyed by parent
  std::map<DomId, DomId> pending_child_parent_;  // child -> parent
};

}  // namespace nephele

#endif  // SRC_GUEST_GUEST_MANAGER_H_
