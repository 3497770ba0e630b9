// CloneObserver: the single instrumentation/observer interface of the clone
// path. The guest runtime, the scheduler, tracing and benches all register
// through CloneEngine::AddObserver() — this replaces the old
// SetResumeHandler/AddResumeObserver dual path. The engine records the clone
// lifecycle metrics itself, just before each observer loop.
//
// Callback order: observers run in registration order. OnCloneStart and
// OnCloneComplete fire synchronously inside the CLONEOP handlers; OnResume is
// delivered through the event loop (the domain really runs again at that
// simulated instant); OnCowFault fires synchronously when a COW fault
// un-shares a page of any family member; OnDestroy fires synchronously
// inside the hypervisor's destroy of any domain.

#ifndef SRC_OBS_CLONE_OBSERVER_H_
#define SRC_OBS_CLONE_OBSERVER_H_

#include "src/hypervisor/types.h"

namespace nephele {

class CloneObserver {
 public:
  virtual ~CloneObserver() = default;

  // A clone batch passed validation and enters the first stage.
  virtual void OnCloneStart(DomId /*parent*/, unsigned /*num_clones*/) {}

  // xencloned reported second-stage completion for `child`.
  virtual void OnCloneComplete(DomId /*parent*/, DomId /*child*/) {}

  // `child` was rolled back instead of completing: either the first stage
  // failed mid-batch (the child never became visible to callers; fires
  // inside the rollback, after the child was destroyed), or the child was
  // destroyed while it still waited for its second stage — xencloned
  // unwinding a failed second stage, or any destroy before the second stage
  // completed (fires inside the destroy, before the child's frames are
  // released).
  virtual void OnCloneAborted(DomId /*parent*/, DomId /*child*/) {}

  // A domain resumes after cloning: each child once, and the parent once per
  // batch after every child completed.
  virtual void OnResume(DomId /*dom*/, bool /*is_child*/) {}

  // A COW fault resolved for `dom`. `copied` is true when a fresh frame was
  // allocated (refcount > 1), false when ownership moved in place.
  virtual void OnCowFault(DomId /*dom*/, Gfn /*gfn*/, bool /*copied*/) {}

  // `dom` is being destroyed, by whoever: fires once per domain, first in
  // the destroy, while it can still be looked up and before any frame is
  // released. Every layer that tracks domains learns of a death here.
  virtual void OnDestroy(DomId /*dom*/) {}
};

}  // namespace nephele

#endif  // SRC_OBS_CLONE_OBSERVER_H_
