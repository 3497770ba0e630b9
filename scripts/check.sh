#!/usr/bin/env bash
# Full verification in five legs: the test suite under the plain build,
# under ASan+UBSan and under TSan (three separate build trees, so switching
# sanitizers never forces a reconfigure of your main build), then the full
# perf-regression gate on the plain tree, then one short traced run of each
# repo-benchmark workload (perfbench/, built in build-perfbench/). Every
# ctest label (dst, hvfuzz, sched, lazy, load, cluster, ...) runs inside the
# first three legs; only the gate's wall-clock comparison with retries and
# the benchmark runs live outside ctest. Each benchmark run checks its own
# invariants and the determinism of its registry digest (reruns, traced vs
# untraced, 1 vs 4 clone workers), so an API or metric-name change in src/
# fails here instead of first in the benchmark pipeline.
#
# The sanitizer legs get a short hostile-guest fuzz round
# (NEPHELE_HVFUZZ_ROUNDS=40): the fuzzer's malformed-argument storms are
# exactly where ASan/UBSan/TSan pay off, but the full default round count
# is too slow under instrumentation.
#
# Usage: scripts/check.sh [ctest-args...]
#   e.g. scripts/check.sh -R parallel_clone       (one suite, all legs)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

run_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [${name}] configure + build ===="
  cmake -B "${dir}" -S . "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target all >/dev/null
  echo "==== [${name}] ctest ===="
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" "${CTEST_ARGS[@]}")
}

CTEST_ARGS=("$@")

run_leg plain build
NEPHELE_HVFUZZ_ROUNDS=40 run_leg asan build-asan -DNEPHELE_SANITIZE=ON
NEPHELE_HVFUZZ_ROUNDS=40 run_leg tsan build-tsan -DNEPHELE_TSAN=ON

# Leg 4: the full perf-regression gate on the plain tree — deterministic
# virtual-time figures under the tight band plus host wall-clock micro-ops
# under the loose band (3 attempts), against scripts/bench_baseline.json.
echo "==== [bench] scripts/bench_gate.sh ===="
scripts/bench_gate.sh --build-dir=build

# Leg 5: the repo benchmark, one second per workload with per-layer tracing.
for workload in clone-storm request-mix cluster-spread; do
  echo "==== [perfbench] ${workload} ===="
  CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
    --workload "${workload}" --seed 1 --seconds 1 --trace 1 >/dev/null
done

echo "==== all five legs passed ===="
