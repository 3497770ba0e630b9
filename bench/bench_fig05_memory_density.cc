// Figure 5 — Memory consumption for booting vs. cloning.
//
// Sec. 6.2 setup: 16 GiB machine split into 4 GiB Dom0 + 12 GiB hypervisor
// pool; the Mini-OS UDP-server image is instantiated until memory runs out,
// once by booting fresh VMs and once by cloning a single parent. Reports the
// free-memory curves (hypervisor pool and Dom0) and the final instance
// counts (paper: 2800 boots vs. 8900 clones, a 3x density gain).
//
// Usage: bench_fig05_memory_density [sample_stride] [--json=PATH]
//        (stride default 100)
//
// --json emits the instance counts and density gain (sim) plus the
// simulator's own host cost at paper scale (wall): the wall time of both
// series and the process's peak resident set, which tracks the frame table
// and the per-domain metadata of the ~8700 domains the clone series holds
// at its end.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_args.h"
#include "bench/bench_json.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

SystemConfig PaperPool() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 12ull * kGiB / kPageSize;
  return cfg;
}

struct DensityPoint {
  std::size_t instances;
  double hyp_free_gb;
  double dom0_free_gb;
};

DomainConfig UdpVmConfig(const std::string& name, std::uint32_t max_clones) {
  DomainConfig cfg;
  cfg.name = name;
  cfg.memory_mb = 4;
  cfg.max_clones = max_clones;
  return cfg;
}

std::vector<DensityPoint> RunBootDensity(std::size_t stride, std::size_t* total) {
  NepheleSystem system(PaperPool());
  GuestManager guests(system);
  std::vector<DensityPoint> points;
  std::size_t count = 0;
  while (true) {
    auto dom = guests.Launch(UdpVmConfig("udp-" + std::to_string(count), 0),
                             std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    if (!dom.ok()) {
      break;  // pool exhausted
    }
    system.Settle();
    ++count;
    if (count % stride == 0) {
      points.push_back(DensityPoint{
          count,
          static_cast<double>(system.hypervisor().FreePoolFrames()) * kPageSize / kGiB,
          static_cast<double>(system.toolstack().Dom0FreeBytes()) / kGiB});
    }
  }
  *total = count;
  return points;
}

std::vector<DensityPoint> RunCloneDensity(std::size_t stride, std::size_t* total) {
  NepheleSystem system(PaperPool());
  GuestManager guests(system);
  Bond bond;
  system.toolstack().SetDefaultSwitch(&bond);
  auto parent = guests.Launch(UdpVmConfig("udp-parent", 60000),
                              std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  if (!parent.ok()) {
    std::fprintf(stderr, "parent boot failed\n");
    *total = 0;
    return {};
  }
  system.Settle();
  std::vector<DensityPoint> points;
  std::size_t count = 1;  // the parent counts as an instance
  while (true) {
    Status s = guests.ContextOf(*parent)->Fork(1, nullptr);
    if (!s.ok()) {
      break;
    }
    system.Settle();
    // A failed clone leaves no child behind; detect via family size.
    std::size_t children = system.hypervisor().FindDomain(*parent)->children.size();
    if (children + 1 == count) {
      break;
    }
    count = children + 1;
    if (count % stride == 0) {
      points.push_back(DensityPoint{
          count,
          static_cast<double>(system.hypervisor().FreePoolFrames()) * kPageSize / kGiB,
          static_cast<double>(system.toolstack().Dom0FreeBytes()) / kGiB});
    }
    if (system.hypervisor().FreePoolFrames() < 128) {
      break;  // next clone cannot fit its private pages
    }
  }
  *total = count;
  return points;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv, {{"stride", 100, "instances between samples"}});
  std::size_t stride = static_cast<std::size_t>(args.Positional("stride"));

  std::size_t boot_total = 0, clone_total = 0;
  auto wall_start = std::chrono::steady_clock::now();
  auto boot = RunBootDensity(stride, &boot_total);
  auto clone = RunCloneDensity(stride, &clone_total);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  const double density_gain =
      static_cast<double>(clone_total) / static_cast<double>(boot_total);

  if (!args.json_path().empty()) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
    BenchJsonWriter json("fig05");
    json.Add("instances_booted", static_cast<double>(boot_total), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("instances_cloned", static_cast<double>(clone_total), "count",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("density_gain", density_gain, "x", MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("host_wall_ms", wall_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
    json.Add("host_peak_rss_mib", peak_rss_mib, "MiB", MetricDir::kLowerIsBetter,
             MetricKind::kWall);
    return json.WriteFile(args.json_path()) ? 0 : 1;
  }

  SeriesTable table("Figure 5: free memory vs instances (GB); -1 = series ended",
                    {"instances", "boot_hyp_free", "boot_dom0_free", "clone_hyp_free",
                     "clone_dom0_free"});
  std::size_t rows = std::max(boot.size(), clone.size());
  for (std::size_t i = 0; i < rows; ++i) {
    double idx = static_cast<double>((i + 1) * stride);
    table.AddRow({idx, i < boot.size() ? boot[i].hyp_free_gb : -1.0,
                  i < boot.size() ? boot[i].dom0_free_gb : -1.0,
                  i < clone.size() ? clone[i].hyp_free_gb : -1.0,
                  i < clone.size() ? clone[i].dom0_free_gb : -1.0});
  }
  table.Print();

  PrintSummary("instances by booting", static_cast<double>(boot_total));
  PrintSummary("instances by cloning", static_cast<double>(clone_total));
  PrintSummary("density gain", density_gain, "x");
  PrintSummary("memory per booted instance",
               12.0 * 1024.0 / static_cast<double>(boot_total), "MiB");
  PrintSummary("memory per clone", 12.0 * 1024.0 / static_cast<double>(clone_total), "MiB");
  double saved_gb = static_cast<double>(clone_total - boot_total) * 4.0 / 1024.0;
  PrintSummary("total memory saved vs booting the same count", saved_gb, "GiB");
  return 0;
}
