// NepheleSystem: the library's main entry point (see examples/quickstart.cpp)
// — one fully-wired virtualization environment (hypervisor, Xenstore, device
// backends, toolstack, clone engine and xencloned) driven by a discrete-event
// loop. A single host is a Host (src/core/host.h) on a lane of its own; this
// header only keeps the name. Multi-host code constructs a ClusterFabric
// (src/core/fabric.h), whose peers are the same Host.

#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include "src/core/host.h"

namespace nephele {

using NepheleSystem = Host;

}  // namespace nephele

#endif  // SRC_CORE_SYSTEM_H_
