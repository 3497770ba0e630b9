// Hypervisor state invariants: the single reusable oracle consulted by the
// simulation-test harness core (src/dst/harness.h), for both its op
// vocabularies, and by the gtest suites (tests/frame_invariants.h). Each
// check walks live hypervisor state and returns "" when the invariant holds,
// else a human-readable violation.
//
//   frames   free + allocated == total; every referenced mfn lies inside
//            the pool; every allocated frame is referenced by exactly the
//            mappings the frame table thinks it has (shared refcount ==
//            number of p2m references, unshared frames mapped exactly
//            once); no freed frame is still mapped.
//   p2m      every mapped gfn names an allocated in-range frame owned by the
//            domain itself (private) or by dom_cow (shared); a writable pte
//            over a shared frame is only legal for IDC regions; the special
//            gfns (start_info, console, xenstore ring) stay inside the p2m.
//   grants   granter-side entries and mapper-side records agree exactly:
//            over each table's used range, map_count == the table's
//            mappers(ref), every mapper is a live domain holding the
//            matching record, and every granted gfn is inside the
//            granter's p2m.
//   evtchns  no dangling connections: every kInterdomain entry names a live
//            remote domain whose remote_port entry is itself connected; a
//            pending bit only ever sits on a connected or VIRQ port.
//
// The checks are gtest-free and side-effect-free so they can run after every
// fuzz op as the bug signal, not just in unit tests.

#ifndef SRC_HYPERVISOR_INVARIANTS_H_
#define SRC_HYPERVISOR_INVARIANTS_H_

#include <string>

#include "src/hypervisor/hypervisor.h"

namespace nephele {

std::string CheckFrameInvariants(const Hypervisor& hv);
std::string CheckP2mInvariants(const Hypervisor& hv);
std::string CheckGrantInvariants(const Hypervisor& hv);
std::string CheckEvtchnInvariants(const Hypervisor& hv);

// All of the above in order; the first violation wins.
std::string CheckHypervisorInvariants(const Hypervisor& hv);

}  // namespace nephele

#endif  // SRC_HYPERVISOR_INVARIANTS_H_
