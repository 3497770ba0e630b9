#!/usr/bin/env bash
# Full verification in four legs: the test suite under the plain build,
# under ASan+UBSan and under TSan (three separate build trees, so switching
# sanitizers never forces a reconfigure of your main build), then the full
# perf-regression gate on the plain tree. Every ctest label (dst, hvfuzz,
# sched, lazy, load, cluster, ...) runs inside the first three legs; only the
# gate's wall-clock comparison with retries lives outside ctest.
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

echo "==== all four legs passed ===="
