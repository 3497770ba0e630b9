// Function-instance backends for the OpenFaaS-like gateway (Sec. 7.3):
// containers (the vanilla setup — a calibrated model) vs. unikernel clones
// (backed by the real Nephele cloning pipeline). The gateway prices
// capacity from ReadyInstances(): an instance counts once the orchestrator
// reports it ready, and a unikernel instance retired before its report
// lands never counts.

#ifndef SRC_FAAS_BACKEND_H_
#define SRC_FAAS_BACKEND_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/result.h"
#include "src/base/units.h"
#include "src/guest/guest_manager.h"

namespace nephele {

class CloneScheduler;

class FunctionBackend {
 public:
  virtual ~FunctionBackend() = default;

  // Deploys the first instance (t=0 of the experiment).
  virtual Status Deploy() = 0;
  // Launches one more instance; it becomes ready asynchronously.
  virtual Status ScaleUp() = 0;
  // Retires one instance. Backends without an instance-recycling path keep
  // the default refusal (the container model has no scale-down rule).
  virtual Status ScaleDown() { return ErrUnimplemented("scale-down not supported"); }

  virtual std::size_t ReadyInstances() const = 0;
  virtual std::size_t TotalInstances() const = 0;
  // Serving capacity of one ready instance, requests/s.
  virtual double CapacityPerInstance() const = 0;
  // Occupied memory right now (Fig. 10's y axis).
  virtual std::size_t MemoryBytes() const = 0;
  // Times (seconds since experiment start) at which instances were reported
  // ready by the orchestrator — Fig. 10's dashed vertical lines.
  virtual const std::vector<double>& ReadinessTimes() const = 0;
};

// The vanilla setup: Kubernetes pods running the function container.
class ContainerBackend : public FunctionBackend {
 public:
  // First instance includes the image pull (Fig. 10: ready at ~33 s).
  static constexpr SimDuration kFirstStartLatency = SimDuration::Seconds(33);
  // Subsequent instances: scheduling + container start.
  static constexpr SimDuration kStartLatency = SimDuration::Seconds(12);
  static constexpr std::size_t kFirstInstanceBytes = 90 * kMiB;
  static constexpr std::size_t kInstanceBytes = 220 * kMiB;  // "hundreds of megabytes"
  static constexpr double kCapacityRps = 600;                // native Linux stack

  explicit ContainerBackend(EventLoop& loop) : loop_(loop) {}

  Status Deploy() override;
  Status ScaleUp() override;
  std::size_t ReadyInstances() const override { return ready_; }
  std::size_t TotalInstances() const override { return total_; }
  double CapacityPerInstance() const override { return kCapacityRps; }
  std::size_t MemoryBytes() const override;
  const std::vector<double>& ReadinessTimes() const override { return readiness_; }

 private:
  void LaunchOne(SimDuration latency);

  EventLoop& loop_;
  std::size_t ready_ = 0;
  std::size_t total_ = 0;
  SimTime image_pulled_at_;
  std::vector<double> readiness_;
};

// The Nephele setup: the first instance boots a Unikraft+Python guest; every
// further instance is a clone of it (KubeKraft-style packaging).
class UnikernelBackend : public FunctionBackend {
 public:
  static constexpr std::size_t kMemoryMb = 64;
  // Kubernetes-side pod bookkeeping until the instance is *reported* ready;
  // dominates over the ~25 ms clone itself.
  static constexpr SimDuration kK8sReportLatency = SimDuration::Seconds(2);
  static constexpr SimDuration kFirstReportLatency = SimDuration::Seconds(3);
  // Dom0-side services per instance (pod wrapper, kubelet bookkeeping): part
  // of the "85 MB first / 35 MB subsequent" split of Sec. 7.3.
  static constexpr std::size_t kServicesBytesPerInstance = 21 * kMiB;
  // Python interpreter warm-up after the clone: pages the child dirties.
  static constexpr std::size_t kWarmupPages = 2600;
  static constexpr double kCapacityRps = 300;  // lwip stack (Sec. 7.3)
  // Reporting latency for an instance served from the scheduler's warm
  // pool: no pod creation, just marking the endpoint ready again.
  static constexpr SimDuration kWarmReportLatency = SimDuration::Millis(200);

  explicit UnikernelBackend(GuestManager& manager) : manager_(manager) {}

  // Routes scale-up through `sched` (batching + warm pool) instead of
  // calling Fork directly, and enables ScaleDown: it retires the youngest
  // non-root instance to the scheduler, which resets and parks it. Installs
  // only the scheduler's clone executor: a child the scheduler evicts is
  // destroyed through the toolstack, and its guest ends with the domain.
  void AttachScheduler(CloneScheduler& sched);

  Status Deploy() override;
  Status ScaleUp() override;
  Status ScaleDown() override;
  std::size_t ReadyInstances() const override {
    return instances_.size() - unreported_.size();
  }
  std::size_t TotalInstances() const override { return instances_.size(); }
  double CapacityPerInstance() const override { return kCapacityRps; }
  std::size_t MemoryBytes() const override;
  const std::vector<double>& ReadinessTimes() const override { return readiness_; }

  const std::vector<DomId>& instances() const { return instances_; }

 private:
  // The interpreter warm-up: the resident pages a fresh instance dirties.
  void WarmUp(GuestContext& ctx);
  void OnInstanceGranted(DomId dom, bool warm);
  // `dom` reports ready `latency` from now, unless ScaleDown retires it
  // first.
  void PostReport(DomId dom, SimDuration latency);

  GuestManager& manager_;
  CloneScheduler* sched_ = nullptr;
  std::vector<DomId> instances_;
  // Instances whose readiness report is still in flight, with the report's
  // event; the rest of `instances_` is ready.
  std::map<DomId, EventId> unreported_;
  std::vector<double> readiness_;
};

}  // namespace nephele

#endif  // SRC_FAAS_BACKEND_H_
