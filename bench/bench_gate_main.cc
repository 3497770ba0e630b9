// bench_gate: compares BENCH_*.json documents (bench --json=PATH output)
// against scripts/bench_baseline.json and exits non-zero on regression or
// schema drift. scripts/bench_gate.sh is the driver that runs the benches
// and invokes this binary; ctest runs it in --sim-only mode.
//
//   bench_gate --baseline=PATH --current=PATH [--current=PATH ...]
//              [--sim-only] [--require-all]
//              [--wall-tolerance=F] [--sim-tolerance=F]
//   bench_gate --record=PATH --current=PATH [...]   # (re)write the baseline
//
// Exit codes: 0 pass, 1 regression or schema drift, 2 usage, I/O or parse
// error — so a missing baseline can never pass for a regression verdict.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_gate.h"
#include "bench/bench_json.h"
#include "src/obs/json.h"

namespace nephele {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

bool LoadJson(const std::string& path, JsonValue* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "bench_gate: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!ParseJson(text, out, &error)) {
    std::fprintf(stderr, "bench_gate: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  std::string baseline_path;
  std::string record_path;
  std::vector<std::string> current_paths;
  GateOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg]() { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value();
    } else if (arg.rfind("--record=", 0) == 0) {
      record_path = value();
    } else if (arg.rfind("--current=", 0) == 0) {
      current_paths.push_back(value());
    } else if (arg == "--sim-only") {
      opt.sim_only = true;
    } else if (arg == "--require-all") {
      opt.require_all = true;
    } else if (arg.rfind("--wall-tolerance=", 0) == 0) {
      opt.wall_tolerance = std::atof(value().c_str());
    } else if (arg.rfind("--sim-tolerance=", 0) == 0) {
      opt.sim_tolerance = std::atof(value().c_str());
    } else {
      std::fprintf(stderr, "bench_gate: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (current_paths.empty() || (baseline_path.empty() == record_path.empty())) {
    std::fprintf(stderr,
                 "usage: bench_gate (--baseline=PATH | --record=PATH) --current=PATH [...]\n"
                 "       [--sim-only] [--require-all] [--wall-tolerance=F] [--sim-tolerance=F]\n");
    return 2;
  }

  std::vector<JsonValue> currents(current_paths.size());
  for (std::size_t i = 0; i < current_paths.size(); ++i) {
    if (!LoadJson(current_paths[i], &currents[i])) {
      return 2;
    }
  }

  if (!record_path.empty()) {
    if (BenchJsonWriter::HandicapFromEnv() != 1.0) {
      std::fprintf(stderr, "bench_gate: refusing to record a baseline under "
                           "NEPHELE_BENCH_HANDICAP\n");
      return 2;
    }
    std::string doc = RecordBaseline(currents);
    std::FILE* f = std::fopen(record_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_gate: cannot write %s\n", record_path.c_str());
      return 2;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("bench_gate: recorded %zu bench(es) into %s\n", currents.size(),
                record_path.c_str());
    return 0;
  }

  JsonValue baseline;
  if (!LoadJson(baseline_path, &baseline)) {
    return 2;
  }
  GateReport report = GateCompare(baseline, currents, opt);
  report.Print(stdout);
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) { return nephele::Run(argc, argv); }
