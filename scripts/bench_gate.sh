#!/usr/bin/env bash
# Perf-regression gate: runs the gate's bench fleet in --json mode and
# compares the documents against scripts/bench_baseline.json with
# build/bench/bench_gate. Exits 1 on regression or schema drift, 2 when a
# document cannot be read or parsed.
#
# Usage: scripts/bench_gate.sh [--build-dir=DIR] [--sim-only] [--record]
#                              [--selftest]
#
#   --sim-only   compare only kind "sim" metrics (deterministic virtual-time
#                figures; flake-free — what ctest runs). Wall-only benches
#                and the paper-scale fig05 run are skipped entirely.
#   --record     re-record scripts/bench_baseline.json from this machine's
#                run. Do this after an intentional perf or schema change,
#                on an otherwise idle machine.
#   --selftest   prove the gate bites: rerun the wall benches under a 4x
#                NEPHELE_BENCH_HANDICAP and require a regression verdict
#                (exit 1); an unreadable baseline fails the selftest.
#
# Wall metrics are retried up to 3 times before the gate's verdict stands,
# so a single noisy run on a loaded machine does not fail the build.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
MODE=compare
SIM_ONLY=0
for arg in "$@"; do
  case "${arg}" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --sim-only) SIM_ONLY=1 ;;
    --record) MODE=record ;;
    --selftest) MODE=selftest ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

BENCH="${BUILD_DIR}/bench"
BASELINE=scripts/bench_baseline.json
OUT="${BUILD_DIR}/bench-gate"
mkdir -p "${OUT}"

# The deterministic (sim) benches: small instance counts — the figures are
# virtual-time, so size only moves wall-clock.
run_sim_benches() {
  "${BENCH}/bench_fig04_instantiation" 40 1 --json="${OUT}/BENCH_fig04.json" >/dev/null
  "${BENCH}/bench_fig11_faas_scaling" 30 --json="${OUT}/BENCH_fig11.json" >/dev/null
  "${BENCH}/bench_fig12_request_cloning" 2000 --json="${OUT}/BENCH_fig12.json" >/dev/null
  "${BENCH}/bench_fig13_cluster_scaling" 1024 --json="${OUT}/BENCH_fig13.json" >/dev/null
}

# The wall-clock (micro-op) benches.
run_wall_benches() {
  "${BENCH}/bench_micro_ops" --json="${OUT}/BENCH_clone.json" --suite=clone
  "${BENCH}/bench_micro_ops" --json="${OUT}/BENCH_sched.json" --suite=sched
}

# Fig. 5 at paper scale (a 12 GiB pool, ~3000 boots then ~8700 clones):
# gates the simulator's own host cost — wall time and peak RSS — where the
# paper's density claim lives. Too big for the sanitizer legs, so it never
# runs under --sim-only (the ctest shape).
run_paper_scale_benches() {
  "${BENCH}/bench_fig05_memory_density" --json="${OUT}/BENCH_fig05.json" >/dev/null
}

CURRENTS_SIM=(--current="${OUT}/BENCH_fig04.json" --current="${OUT}/BENCH_fig11.json"
              --current="${OUT}/BENCH_fig12.json" --current="${OUT}/BENCH_fig13.json")
CURRENTS_WALL=(--current="${OUT}/BENCH_clone.json" --current="${OUT}/BENCH_sched.json")
CURRENTS_PAPER=(--current="${OUT}/BENCH_fig05.json")

case "${MODE}" in
  record)
    if [[ -n "${NEPHELE_BENCH_HANDICAP:-}" ]]; then
      echo "refusing to record a baseline under NEPHELE_BENCH_HANDICAP" >&2
      exit 2
    fi
    run_sim_benches
    run_wall_benches
    run_paper_scale_benches
    "${BENCH}/bench_gate" --record="${BASELINE}" \
      "${CURRENTS_SIM[@]}" "${CURRENTS_WALL[@]}" "${CURRENTS_PAPER[@]}"
    ;;
  selftest)
    # A 4x synthetic slowdown on every wall metric must trip the 1.75x band
    # regardless of machine noise. A gate that passes here is not a gate.
    NEPHELE_BENCH_HANDICAP=4.0 run_wall_benches
    verdict=0
    "${BENCH}/bench_gate" --baseline="${BASELINE}" "${CURRENTS_WALL[@]}" || verdict=$?
    if [[ "${verdict}" != 1 ]]; then
      echo "bench gate SELFTEST FAILED: a 4x handicap gave exit ${verdict}, not a" \
           "regression verdict (exit 1)" >&2
      exit 1
    fi
    echo "bench gate selftest passed: 4x handicap tripped the gate as required"
    ;;
  compare)
    run_sim_benches
    if [[ "${SIM_ONLY}" == 1 ]]; then
      exec "${BENCH}/bench_gate" --baseline="${BASELINE}" --sim-only "${CURRENTS_SIM[@]}"
    fi
    for attempt in 1 2 3; do
      run_wall_benches
      run_paper_scale_benches
      if "${BENCH}/bench_gate" --baseline="${BASELINE}" --require-all \
           "${CURRENTS_SIM[@]}" "${CURRENTS_WALL[@]}" "${CURRENTS_PAPER[@]}"; then
        exit 0
      fi
      echo "bench gate: attempt ${attempt}/3 failed; retrying wall benches" >&2
    done
    echo "bench gate: regression persisted across 3 attempts" >&2
    exit 1
    ;;
esac
