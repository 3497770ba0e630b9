// Smoke check for the observability layer: runs a tiny clone scenario twice
// in fresh systems and validates the exported metrics JSON — well-formed,
// byte-identical across runs (the determinism contract), and carrying the
// metric names the figure benches consume. Registered as a ctest target so a
// rename or nondeterministic export fails CI, not a bench run.
//
// Usage: bench_smoke   (exit 0 on success, 1 with a message on failure)

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/system.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace nephele {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::string RunScenario() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  NepheleSystem system(cfg);

  DomainConfig dcfg;
  dcfg.name = "smoke-parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 8;
  auto parent = system.toolstack().CreateDomain(dcfg);
  if (!parent.ok()) {
    std::fprintf(stderr, "FAIL: parent boot: %s\n", parent.status().ToString().c_str());
    ++g_failures;
    return {};
  }
  const Domain* d = system.hypervisor().FindDomain(*parent);
  auto children = system.clone_engine().Clone({*parent, *parent,
                                             d->p2m[d->start_info_gfn].mfn, 2});
  Check(children.ok(), "clone of smoke parent");
  system.Settle();
  return system.metrics().ExportJson();
}

int Run() {
  std::string first = RunScenario();
  std::string second = RunScenario();

  std::string error;
  if (!JsonIsWellFormed(first, &error)) {
    std::fprintf(stderr, "FAIL: metrics JSON malformed: %s\n", error.c_str());
    ++g_failures;
  }
  Check(first == second, "ExportJson byte-identical across two identical runs");

  // The names the figure benches and the repo benchmark (perfbench/) read;
  // a silent rename must fail here. perfbench reads an absent counter as 0,
  // so only this list turns a rename there into an error.
  const std::vector<std::string_view> expected = {
      "\"clone/clones_total\"",         "\"clone/stage1/pages_shared\"",
      "\"clone/stage1/duration_ns\"",   "\"clone/stage2/duration_ns\"",
      "\"clone/fork_to_resume/duration_ns\"",
      "\"xencloned/clones_completed\"", "\"xenstore/requests/total\"",
      "\"xenstore/log/rotations\"",     "\"toolstack/boot/duration_ns\"",
      "\"toolstack/domains_booted\"",   "\"hypervisor/frames/shared\"",
      "\"hypervisor/hypercalls\"",
      "\"clone/batches_total\"",        "\"clone/stage1/pages_private_copied\"",
      "\"clone/rolled_back\"",          "\"clone/reset/count\"",
      "\"clone/reset/pages_restored\"", "\"xencloned/cache_hits\"",
      "\"xencloned/cache_misses\"",     "\"xencloned/clones_aborted\"",
      "\"xenstore/requests/xs_clone\"", "\"xenstore/watches/fired\"",
      "\"xenstore/entries\"",           "\"xenstore/txn/conflicts\"",
      "\"hypervisor/frames/saved_by_sharing\"",
      "\"hypervisor/cow/faults\"",      "\"hypervisor/cow/pages_copied\"",
      "\"hypervisor/grant/maps\"",
  };
  for (std::string_view key : expected) {
    if (first.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL: metrics JSON missing key %s\n",
                   std::string(key).c_str());
      ++g_failures;
    }
  }

  if (g_failures == 0) {
    std::printf("bench_smoke: ok (%zu bytes of metrics JSON)\n", first.size());
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace nephele

int main() { return nephele::Run(); }
