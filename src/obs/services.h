// SystemServices: the bundle of cross-cutting services (metrics, tracing,
// fault injection) every component of a host receives at construction —
// the hypervisor, Xenstore, device backends, toolstack, clone engine,
// xencloned, the clone scheduler and fabric links. One struct passed by
// const-ref, so adding a service never changes a constructor signature.
//
// Every member is a reference and the bundle has no default: a component
// always records into the registry, traces into the recorder and registers
// its fault points with the injector it was given. Host::services() hands
// out a host's bundle; standalone constructions in tests declare their own
// registry, recorder and injector.

#ifndef SRC_OBS_SERVICES_H_
#define SRC_OBS_SERVICES_H_

namespace nephele {

class MetricsRegistry;
class TraceRecorder;
class FaultInjector;

struct SystemServices {
  MetricsRegistry& metrics;
  TraceRecorder& trace;
  FaultInjector& faults;
};

}  // namespace nephele

#endif  // SRC_OBS_SERVICES_H_
