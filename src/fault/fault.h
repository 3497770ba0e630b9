// Deterministic fault injection: named fault points threaded through the
// hypervisor, xenstore, toolstack, devices and the clone engine.
//
// A subsystem registers a point once (find-or-create, like metric handles)
// and calls Poke() on the guarded path; the call returns OK unless a test
// armed the point with a FaultSpec. Both trigger policies are deterministic:
// nth-hit counts hits since arming, and the probability policy draws from a
// per-point Rng seeded by the spec — the same plan against the same workload
// injects the same faults, byte for byte.

#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/sim/rng.h"

namespace nephele {

// What to inject and when. Built via the static helpers; the default spec
// never fires.
struct FaultSpec {
  enum class Policy { kNever, kNthHit, kProbability };

  Policy policy = Policy::kNever;
  // kNthHit: fire on the nth Poke() after arming (1-based), exactly once.
  std::uint64_t nth = 1;
  // kProbability: fire independently on each Poke() with this probability,
  // drawn from an Rng seeded with `seed` at arming time.
  double probability = 0.0;
  std::uint64_t seed = 0;
  // The error injected. Defaults to the most common real-world shape.
  StatusCode code = StatusCode::kResourceExhausted;
  std::string message = "injected fault";

  static FaultSpec NthHit(std::uint64_t n, StatusCode code = StatusCode::kResourceExhausted,
                          std::string message = "injected fault");
  static FaultSpec WithProbability(double p, std::uint64_t seed,
                                   StatusCode code = StatusCode::kResourceExhausted,
                                   std::string message = "injected fault");
};

// A single named injection site. Handles are owned by the injector and stay
// valid for its lifetime; subsystems cache them at construction.
class FaultPoint {
 public:
  // `injected` is the registry-wide "fault/injected" counter.
  FaultPoint(std::string name, Counter& injected)
      : name_(std::move(name)), injected_metric_(injected) {}

  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  const std::string& name() const { return name_; }

  // Called on the guarded path. Counts the hit; an armed point then
  // evaluates its policy and returns the injected error when it fires. The
  // unarmed case (every poke outside fault tests) is inline: a counter bump
  // and OK.
  Status Poke() {
    ++hits_;
    return armed_ ? PokeArmed() : Status::Ok();
  }

  // Bulk poke: exactly equivalent to calling Poke() up to `n` times,
  // stopping at the first poke that fires. `performed` reports how many
  // pokes ran (== n when none fired). The clone engine's plan phase uses
  // this to account a run of identical per-page pokes in O(1) for the
  // common unarmed case while keeping hit counts and rng draws bit-exact.
  struct BulkPoke {
    std::uint64_t performed = 0;
    Status status;
  };
  BulkPoke PokeMany(std::uint64_t n);

  // Total Poke() calls since construction (armed or not).
  std::uint64_t hits() const { return hits_; }

 private:
  friend class FaultInjector;

  void Arm(const FaultSpec& spec);
  void Disarm();
  // The armed policy of Poke(), after the hit is counted.
  Status PokeArmed();

  std::string name_;
  FaultSpec spec_;
  bool armed_ = false;
  // Hits since the point was last armed; drives the nth-hit policy.
  std::uint64_t hits_since_armed_ = 0;
  bool fired_once_ = false;
  Rng rng_;

  std::uint64_t hits_ = 0;
  Counter& injected_metric_;
};

// Registry of fault points. Single-threaded, like the rest of the
// simulation. Injections are counted in `metrics` as "fault/injected".
class FaultInjector {
 public:
  explicit FaultInjector(MetricsRegistry& metrics);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Find-or-create. The returned pointer stays valid for the injector's
  // lifetime.
  FaultPoint* GetPoint(std::string_view name);

  // Arms an already-registered point. Unknown names are an error so tests
  // fail loudly on typos instead of silently never injecting.
  Status Arm(std::string_view name, const FaultSpec& spec);
  void DisarmAll();

  // Sorted names of every registered point — the sweep harness enumerates
  // these to guarantee coverage.
  std::vector<std::string> PointNames() const;

  std::uint64_t HitCount(std::string_view name) const;

 private:
  // Read-only lookup; null when the point was never registered.
  const FaultPoint* FindPoint(std::string_view name) const;

  std::map<std::string, std::unique_ptr<FaultPoint>, std::less<>> points_;
  Counter& injected_counter_;
};

}  // namespace nephele

#endif  // SRC_FAULT_FAULT_H_
