// The repo benchmark. One command per workload and seed:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The program repeats the workload's seeded repetition until S seconds have
// passed (at least twice), then once more with four clone staging workers.
// The first repetition warms the heap and counts only toward set-up time.
// Virtual metrics must be identical across all of these repetitions: that
// is the determinism self-check (reruns, worker counts 1 vs 4, traced vs
// untraced). Host metrics are medians over the single-worker repetitions.
// A fixed reference unit of host work (reference.cc) runs between
// repetitions. The end-to-end host times are scaled by how long it took
// against its nominal time, which cancels most of a shared host's drift in
// speed; the raw wall-clock figures are per-layer metrics.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced repetitions and prints the per-layer metrics, including the
// tracing overhead. Human-readable lines come first; the last line of
// standard output is one JSON object. The exit code is 1 when any
// correctness check failed, 2 on a usage error.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

enum class Base { kVirtual, kHost };

struct MetricSpec {
  const char* name;
  const char* unit;
  Base base;
};

// The end-to-end metrics every workload prints (BENCHMARK.json end_to_end).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s", Base::kHost},
    {"ref_ops_per_s", "1/s", Base::kHost},
    {"peak_rss_mib", "MiB", Base::kHost},
    {"sim_op_p50_ms", "ms", Base::kVirtual},
    {"sim_op_p99_ms", "ms", Base::kVirtual},
    {"sim_ops_per_s", "1/s", Base::kVirtual},
    {"slo_ratio", "ratio", Base::kVirtual},
    {"mem_per_instance_kib", "KiB", Base::kVirtual},
};

// Printed in the human-readable report only: they are not defined on every
// workload, or can be 0 (BENCHMARK.json metrics must never be).
const std::vector<MetricSpec> kReportOnly = {
    {"sim_op_samples", "count", Base::kVirtual},
    {"latency_limit_ms", "ms", Base::kVirtual},
    {"fail_ratio", "ratio", Base::kVirtual},
    {"sim_capacity_rps", "1/s", Base::kVirtual},
    {"paper_clone_err_pct", "%", Base::kVirtual},
    {"paper_mem_err_pct", "%", Base::kVirtual},
};

// The per-layer metrics of the traced run (BENCHMARK.json per_layer). A
// layer a workload does not exercise reports 0.
const std::vector<MetricSpec> kPerLayer = {
    {"sim.run.wall_ms", "ms", Base::kHost},
    {"sim.events", "count", Base::kVirtual},
    {"sim.host_ns_per_event", "ns", Base::kHost},
    {"sim.virtual_per_wall", "ratio", Base::kHost},
    {"toolstack.create.calls", "count", Base::kVirtual},
    {"toolstack.create.wall_ms", "ms", Base::kHost},
    {"toolstack.boot.sim_ms", "ms", Base::kVirtual},
    {"guest.fork.calls", "count", Base::kVirtual},
    {"guest.fork.wall_us.p50", "us", Base::kHost},
    {"guest.fork.wall_us.p99", "us", Base::kHost},
    {"core.clone.calls", "count", Base::kVirtual},
    {"core.clone.children", "count", Base::kVirtual},
    {"core.clone.wall_us.p50", "us", Base::kHost},
    {"core.clone.wall_us.p99", "us", Base::kHost},
    {"core.clone.stage1_sim_ms", "ms", Base::kVirtual},
    {"core.clone.pages_shared_per_child", "count", Base::kVirtual},
    {"core.clone.pages_copied_per_child", "count", Base::kVirtual},
    {"core.clone.rolled_back", "count", Base::kVirtual},
    {"core.xencloned.stage2_sim_ms.p50", "ms", Base::kVirtual},
    {"core.xencloned.stage2_sim_ms.p99", "ms", Base::kVirtual},
    {"core.xencloned.completed", "count", Base::kVirtual},
    {"core.xencloned.aborted", "count", Base::kVirtual},
    {"core.xencloned.cache_hit_ratio", "ratio", Base::kVirtual},
    {"xenstore.requests_per_clone", "count", Base::kVirtual},
    {"xenstore.xs_clone_requests", "count", Base::kVirtual},
    {"xenstore.log_rotations", "count", Base::kVirtual},
    {"xenstore.watches_fired_per_clone", "count", Base::kVirtual},
    {"xenstore.entries_end", "count", Base::kVirtual},
    {"xenstore.txn_conflicts", "count", Base::kVirtual},
    {"hypervisor.frames_allocated_peak", "count", Base::kVirtual},
    {"hypervisor.frames_saved_by_sharing", "count", Base::kVirtual},
    {"hypervisor.cow_faults_per_op", "count", Base::kVirtual},
    {"hypervisor.cow_pages_copied", "count", Base::kVirtual},
    {"hypervisor.hypercalls_per_op", "count", Base::kVirtual},
    {"hypervisor.grant_maps", "count", Base::kVirtual},
    {"net.ready_packets", "count", Base::kVirtual},
    {"net.link_tx_bytes", "B", Base::kVirtual},
    {"net.link_tx_packets", "count", Base::kVirtual},
    {"net.link_bytes_per_migration", "B", Base::kVirtual},
    {"core.fabric.migrate.calls", "count", Base::kVirtual},
    {"core.fabric.migrate.failed", "count", Base::kVirtual},
    {"core.fabric.migrate.wall_ms", "ms", Base::kHost},
    {"core.fabric.migrate.sim_ms", "ms", Base::kVirtual},
    {"core.fabric.replicate.wall_ms", "ms", Base::kHost},
    {"core.fabric.replicate.sim_ms", "ms", Base::kVirtual},
    {"sched.acquire.calls", "count", Base::kVirtual},
    {"sched.warm_hit_ratio", "ratio", Base::kVirtual},
    {"sched.wait_sim_ms.p99", "ms", Base::kVirtual},
    {"sched.warm_grant_sim_ms.p99", "ms", Base::kVirtual},
    {"sched.batch_size_mean", "count", Base::kVirtual},
    {"sched.rejected", "count", Base::kVirtual},
    {"sched.timeouts", "count", Base::kVirtual},
    {"sched.evictions", "count", Base::kVirtual},
    {"sched.reset_pages_per_release", "count", Base::kVirtual},
    {"sched.cluster.acquire.wall_us", "us", Base::kHost},
    {"sched.cluster.warm_placement_ratio", "ratio", Base::kVirtual},
    {"sched.cluster.host_imbalance", "ratio", Base::kVirtual},
    {"sched.cluster.rejected", "count", Base::kVirtual},
    {"load.submit.wall_us", "us", Base::kHost},
    {"load.dispatched", "count", Base::kVirtual},
    {"load.wins", "count", Base::kVirtual},
    {"load.cancelled", "count", Base::kVirtual},
    {"load.rejected", "count", Base::kVirtual},
    {"load.failed", "count", Base::kVirtual},
    {"load.win_ratio", "ratio", Base::kVirtual},
    {"load.service_sim_ms.mean", "ms", Base::kVirtual},
    {"load.arrival_lag_ms.p99", "ms", Base::kVirtual},
    {"load.capacity_rps", "1/s", Base::kVirtual},
    {"obs.trace_dropped", "count", Base::kVirtual},
    {"obs.bench_trace_overhead_pct", "%", Base::kHost},
    {"obs.wall_setup_s", "s", Base::kHost},
    {"obs.wall_ops_per_s", "1/s", Base::kHost},
    {"obs.reference_ms", "ms", Base::kHost},
};

struct Workload {
  const char* name;
  RepResult (*run)(const RepConfig&);
};

const std::vector<Workload> kWorkloads = {
    {"clone-storm", RunCloneStorm},
    {"request-mix", RunRequestMix},
    {"cluster-spread", RunClusterSpread},
};

// Bound on one invocation, well inside the 180 s a run may take.
constexpr double kMaxRunSeconds = 120.0;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads: clone-storm request-mix cluster-spread\n",
               why);
  std::exit(2);
}

std::optional<long long> ParseInt(const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    return std::nullopt;
  }
  return v;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string TraceDir() {
  const char* target = std::getenv("CARGO_TARGET_DIR");
  return std::string(target != nullptr && *target != '\0' ? target : ".bench_build") +
         "/perfbench-traces";
}

// Compares a repetition's virtual metrics with the first repetition's.
std::string CompareVirtual(const RepResult& first, const RepResult& rep) {
  if (rep.digest != first.digest) {
    return "registry export digest differs";
  }
  for (const auto& [name, value] : first.virt) {
    auto it = rep.virt.find(name);
    if (it == rep.virt.end() || it->second != value) {
      return "virtual metric " + name + " differs";
    }
  }
  return rep.virt.size() == first.virt.size() ? "" : "virtual metric set differs";
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::optional<long long> seed, seconds, trace;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = ParseInt(value);
    } else if (flag == "--seconds") {
      seconds = ParseInt(value);
    } else if (flag == "--trace") {
      trace = ParseInt(value);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!seed || *seed < 0 || !seconds || *seconds < 1 || *seconds > 60 || !trace ||
      (*trace != 0 && *trace != 1)) {
    Usage("bad or missing --seed, --seconds or --trace");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    workload = workload_name == w.name ? &w : workload;
  }
  if (workload == nullptr) {
    Usage(("unknown workload '" + workload_name + "'").c_str());
  }
  const bool traced_run = *trace == 1;
  // One malloc arena that keeps its pages: clone staging workers would
  // otherwise each grow their own, making peak RSS depend on which
  // repetitions used them, and every repetition would fault its frame
  // tables in again.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);

  struct Rep {
    RepResult result;
    bool traced = false;
    unsigned workers = 1;
    MetricMap host_layers;  // traced repetitions only
    // Index in ref_s of the reference run just before the repetition
    // (single-worker repetitions only).
    std::size_t ref_index = 0;
  };
  std::vector<Rep> reps;
  std::vector<std::string> violations;
  bool trace_written = false;
  const auto run_start = std::chrono::steady_clock::now();
  // Times of the reference unit: once before the first repetition and after
  // every single-worker repetition.
  (void)ReferenceWorkS();  // faults its table in
  std::vector<double> ref_s = {ReferenceWorkS()};
  auto run_rep = [&](bool traced, unsigned workers) {
    Rep rep;
    rep.traced = traced;
    rep.workers = workers;
    Tracer tracer;
    RepConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(*seed);
    cfg.clone_workers = workers;
    cfg.tracer = traced ? &tracer : nullptr;
    rep.result = workload->run(cfg);
    if (workers == 1) {
      rep.ref_index = ref_s.size() - 1;
      ref_s.push_back(ReferenceWorkS());
    }
    for (const std::string& v : rep.result.violations) {
      violations.push_back(v);
    }
    if (traced) {
      if (std::string v = tracer.CheckNesting(); !v.empty()) {
        violations.push_back("trace: " + v);
      }
      FillSpanLayers(tracer, rep.result.virt["sim.events"], rep.host_layers);
      rep.host_layers["sim.virtual_per_wall"] =
          rep.result.timed_wall_s > 0 ? rep.result.virt["sim.timed_s"] / rep.result.timed_wall_s
                                      : 0.0;
      if (!trace_written) {
        std::error_code ec;
        std::filesystem::create_directories(TraceDir(), ec);
        const std::string path = TraceDir() + "/" + workload->name + "-seed" +
                                 std::to_string(*seed) + ".jsonl";
        if (tracer.WriteJsonLines(path)) {
          std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
        }
        trace_written = true;
      }
    }
    if (!reps.empty()) {
      if (std::string v = CompareVirtual(reps.front().result, rep.result); !v.empty()) {
        violations.push_back("determinism (" + std::to_string(workers) + " workers, " +
                             (traced ? "traced" : "untraced") + "): " + v);
      }
    }
    reps.push_back(std::move(rep));
  };

  // Timed repetitions on one staging worker. The first one warms the heap
  // and is left out of the throughput medians; after it, a traced run
  // alternates traced and untraced repetitions so both see the same machine
  // conditions.
  const std::size_t min_reps = traced_run ? 3 : 2;
  while (reps.size() < min_reps ||
         (ElapsedS(run_start) < static_cast<double>(*seconds) &&
          ElapsedS(run_start) < kMaxRunSeconds)) {
    run_rep(traced_run && reps.size() % 2 == 1, 1);
    if (!violations.empty()) {
      break;
    }
  }
  if (violations.empty()) {
    run_rep(false, 4);  // the worker-count half of the determinism check
  }

  // --- Aggregate ---
  const RepResult& first = reps.front().result;
  // How much slower than nominal the host ran around a repetition: the
  // median of the ten reference runs nearest it, over kReferenceNominalS.
  // The median damps the noise of a single run but follows drifts that last
  // a few seconds.
  auto slowdown = [&](std::size_t index) {
    const std::size_t lo = index >= 4 ? index - 4 : 0;
    const std::size_t hi = std::min(ref_s.size(), index + 6);
    return Median(std::vector<double>(ref_s.begin() + static_cast<std::ptrdiff_t>(lo),
                                      ref_s.begin() + static_cast<std::ptrdiff_t>(hi))) /
           kReferenceNominalS;
  };
  std::vector<double> setup_s, wall_setup_s, untraced_ops_per_s, untraced_ref_ops_per_s,
      traced_ref_ops_per_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& rep : reps) {
    attempted += rep.result.attempted;
    failed += rep.result.failed;
    if (rep.workers != 1) {
      continue;
    }
    wall_setup_s.push_back(rep.result.setup_s);
    setup_s.push_back(rep.result.setup_s / slowdown(rep.ref_index));
    if (&rep == &reps.front()) {
      continue;
    }
    const double ops_per_s = rep.result.timed_wall_s > 0
                                 ? static_cast<double>(rep.result.attempted) /
                                       rep.result.timed_wall_s
                                 : 0.0;
    const double ref_ops_per_s = ops_per_s * slowdown(rep.ref_index);
    if (rep.traced) {
      traced_ref_ops_per_s.push_back(ref_ops_per_s);
    } else {
      untraced_ops_per_s.push_back(ops_per_s);
      untraced_ref_ops_per_s.push_back(ref_ops_per_s);
    }
  }
  MetricMap values = first.virt;
  values["setup_s"] = Median(setup_s);
  values["ref_ops_per_s"] = Median(untraced_ref_ops_per_s);
  values["obs.wall_setup_s"] = Median(wall_setup_s);
  values["obs.wall_ops_per_s"] = Median(untraced_ops_per_s);
  values["obs.reference_ms"] = 1e3 * Median(ref_s);
  // The reference's table is the benchmark's own, not the simulator's.
  values["peak_rss_mib"] = PeakRssMib() - static_cast<double>(kReferenceTableMib);
  values["fail_ratio"] =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  if (traced_run) {
    std::map<std::string, std::vector<double>> host;
    for (const Rep& rep : reps) {
      for (const auto& [name, value] : rep.host_layers) {
        host[name].push_back(value);
      }
    }
    for (const auto& [name, samples] : host) {
      values[name] = Median(samples);
    }
    const double untraced = Median(untraced_ref_ops_per_s);
    values["obs.bench_trace_overhead_pct"] =
        untraced > 0 ? 100.0 * (untraced - Median(traced_ref_ops_per_s)) / untraced : 0.0;
  }

  // --- Report ---
  const bool correct = violations.empty();
  std::printf("# perfbench %s seed=%lld seconds=%lld trace=%lld: %zu repetitions "
              "(%zu traced), last on 4 clone workers\n",
              workload->name, *seed, *seconds, *trace, reps.size(),
              static_cast<std::size_t>(std::count_if(reps.begin(), reps.end(),
                                                     [](const Rep& r) { return r.traced; })));
  for (const std::string& v : violations) {
    std::printf("# FAILED CHECK: %s\n", v.c_str());
  }
  auto print = [&](const MetricSpec& spec, bool always) {
    auto it = values.find(spec.name);
    if (it == values.end() && !always) {
      return;
    }
    std::printf("# %-36s %18.6f %-6s %s\n", spec.name, it == values.end() ? 0.0 : it->second,
                spec.unit, spec.base == Base::kHost ? "host" : "virtual");
  };
  const std::vector<MetricSpec>& listed = traced_run ? kPerLayer : kEndToEnd;
  for (const MetricSpec& spec : listed) {
    print(spec, true);
  }
  for (const MetricSpec& spec : kReportOnly) {
    print(spec, false);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < listed.size(); ++i) {
    auto it = values.find(listed[i].name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", it == values.end() ? 0.0 : it->second);
    json += std::string(i == 0 ? "" : ", ") + "\"" + listed[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + listed[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
