// Gtest shim over the reusable hypervisor invariant oracle
// (src/hypervisor/invariants.h), asserted by the fault sweep and the
// concurrency stress suite after every perturbation of a system. The real
// checks — frame conservation and refcount-vs-mapping agreement, p2m
// ownership, grant bookkeeping, evtchn connectivity — live in the library so
// both vocabularies of the simulation-test harness run the identical oracle.

#ifndef TESTS_FRAME_INVARIANTS_H_
#define TESTS_FRAME_INVARIANTS_H_

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/hypervisor/invariants.h"

namespace nephele {

// Full hypervisor state consistency against every live domain's mappings.
inline void ExpectFrameConsistency(NepheleSystem& sys) {
  EXPECT_EQ(CheckHypervisorInvariants(sys.hypervisor()), "");
}

}  // namespace nephele

#endif  // TESTS_FRAME_INVARIANTS_H_
