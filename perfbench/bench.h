// Shared pieces of the repo benchmark: the per-repetition contract every
// workload implements, the seeded input generator, order statistics, and
// counter deltas read from the simulator's public metrics registries.
//
// Every metric carries a time base. Virtual metrics (simulated time, counts)
// must repeat exactly for a seed; host metrics (wall clock, memory) are the
// simulator's own cost and vary run to run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/core/clone_engine.h"
#include "src/obs/clone_observer.h"
#include "src/obs/metrics.h"

namespace perfbench {

using MetricMap = std::map<std::string, double>;

// The latency limit slo_ratio is judged against on single-host workloads:
// the raise threshold of the req_tail alarm.
inline constexpr double kLatencyLimitMs = 50.0;

struct RepConfig {
  std::uint64_t seed = 1;
  unsigned clone_workers = 1;
  Tracer* tracer = nullptr;  // null: untraced
};

struct RepResult {
  double setup_s = 0;       // host: repetition start to the first timed op
  double timed_wall_s = 0;  // host: the timed phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Virtual-time and count metrics, end-to-end and per layer. Identical for
  // every repetition of one seed, whatever the worker count or tracing.
  MetricMap virt;
  // The merged registry export of every host at the end of the timed phase.
  std::string digest;
  // Broken correctness checks; any entry fails the run.
  std::vector<std::string> violations;
};

RepResult RunCloneStorm(const RepConfig& cfg);
RepResult RunRequestMix(const RepConfig& cfg);
RepResult RunClusterSpread(const RepConfig& cfg);

// Seeded input generator, independent of the simulator's own RNG streams.
class InputRng {
 public:
  InputRng(std::uint64_t seed, std::uint64_t salt) : gen_(seed * 0x9e3779b97f4a7c15ULL ^ salt) {}
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  // Uniform integer in [lo, hi].
  std::uint64_t Between(std::uint64_t lo, std::uint64_t hi) {
    return lo + static_cast<std::uint64_t>(Uniform() * static_cast<double>(hi - lo + 1));
  }
  double Exponential(double rate) { return -std::log(1.0 - Uniform()) / rate; }

 private:
  std::mt19937_64 gen_;
};

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

inline double ElapsedS(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

// Runs a fixed unit of host work that is independent of the simulator (an
// event queue, an ordered map and random access to a table larger than the
// cache) and returns its wall time in seconds.
double ReferenceWorkS();
// Roughly the reference unit's time on an otherwise idle 2.0 GHz x86-64
// vCPU. End-to-end host times are reported as if on a host where the unit
// takes this long.
inline constexpr double kReferenceNominalS = 0.025;
// The reference's table, resident from its first call on.
inline constexpr std::size_t kReferenceTableMib = 32;

// Counter and histogram values summed over several registries (one per
// host, plus the fabric's), read only through public registry accessors.
class RegistryProbe {
 public:
  struct Hist {
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t max = 0;
    std::vector<std::int64_t> bounds;
    std::vector<std::uint64_t> buckets;
  };
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, Hist> hists;
  };

  explicit RegistryProbe(std::vector<const nephele::MetricsRegistry*> registries)
      : registries_(std::move(registries)) {}

  Snapshot Take() const;

 private:
  std::vector<const nephele::MetricsRegistry*> registries_;
};

// Timed-phase deltas between two snapshots.
class Delta {
 public:
  Delta(const RegistryProbe::Snapshot& before, const RegistryProbe::Snapshot& after)
      : before_(before), after_(after) {}
  double Count(const std::string& name) const;
  double Gauge(const std::string& name) const;  // value at the end
  // Mean of the observations made between the snapshots.
  double HistMean(const std::string& name) const;
  // Upper bound (ms) of the registry bucket holding quantile q of the
  // observations made between the snapshots; the largest observation when
  // that is the overflow bucket.
  double HistQuantileMs(const std::string& name, double q) const;

 private:
  const RegistryProbe::Snapshot& before_;
  const RegistryProbe::Snapshot& after_;
};

// The benchmark's hook on one host's clone path. It times the second stage
// (Clone return to the child's OnResume) in virtual time, counts COW copies
// and, when tracing, opens the core.clone span of a guest fork
// at OnCloneStart (the span closes when the Fork call returns).
class BenchObserver : public nephele::CloneObserver {
 public:
  BenchObserver(nephele::CloneEngine& engine, const nephele::EventLoop& loop, Tracer* tracer)
      : engine_(engine), loop_(loop), tracer_(tracer) {
    engine_.AddObserver(this);
  }
  ~BenchObserver() override { engine_.RemoveObserver(this); }
  BenchObserver(const BenchObserver&) = delete;
  BenchObserver& operator=(const BenchObserver&) = delete;

  // Called by the benchmark right after a Clone call returned `children`.
  void NoteCloneReturn(const std::vector<nephele::DomId>& children);
  // Drops the second-stage samples of set-up clones.
  void StartTimedPhase() { stage2_ms_.clear(); }

  void OnCloneStart(nephele::DomId parent, unsigned num_clones) override;
  void OnCloneAborted(nephele::DomId parent, nephele::DomId child) override;
  void OnResume(nephele::DomId dom, bool is_child) override;
  void OnCowFault(nephele::DomId dom, nephele::Gfn gfn, bool copied) override;

  const std::vector<double>& stage2_ms() const { return stage2_ms_; }
  std::uint64_t cow_copies() const { return cow_copies_; }

 private:
  nephele::CloneEngine& engine_;
  const nephele::EventLoop& loop_;
  Tracer* tracer_;
  std::map<nephele::DomId, std::int64_t> returned_at_ns_;
  std::vector<double> stage2_ms_;
  std::uint64_t cow_copies_ = 0;
};

// 64-bit FNV-1a, for digests of registry exports.
std::uint64_t Fnv1a(const std::string& text);

// Per-layer virtual metrics every workload reads the same way from its
// registries: clone stages, xencloned, Xenstore, hypervisor, scheduler and
// request layer. `ops` is the number of timed ops.
void FillRegistryLayers(const Delta& d, double ops, MetricMap& m);

// Host-time per-layer metrics from a traced repetition's spans.
void FillSpanLayers(const Tracer& tracer, double sim_events, MetricMap& m);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
