#!/usr/bin/env bash
# Flat gprof profile of one repo-benchmark workload. Configures perfbench/
# with -pg into build-prof/ (a tree of its own: the benchmark's Release
# build in build-perfbench/ and every file under perfbench/ stay as they
# are), runs the workload untraced in a temporary directory, where the
# profiled binary drops its gmon.out, and prints the top of `gprof -b -p`.
# The whole flat profile stays in build-prof/profile-WORKLOAD-sSEED.txt.
#
# Usage: scripts/profile.sh WORKLOAD [SECONDS] [SEED]
#   WORKLOAD  clone-storm, request-mix or cluster-spread
#   SECONDS   the run's --seconds (default 5)
#   SEED      the run's --seed (default 1)
# NEPHELE_PROFILE_LINES sets how many lines of the profile to print (40).

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 3 ]]; then
  echo "usage: scripts/profile.sh WORKLOAD [SECONDS] [SEED]" >&2
  exit 2
fi
WORKLOAD="$1"
RUN_SECONDS="${2:-5}"
SEED="${3:-1}"
BUILD_DIR="${PWD}/build-prof"

cmake -S perfbench -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-pg -fno-omit-frame-pointer" -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
cmake --build "${BUILD_DIR}" --target perfbench -j "$(nproc 2>/dev/null || echo 4)" >/dev/null

RUN_DIR="$(mktemp -d)"
trap 'rm -rf "${RUN_DIR}"' EXIT
(cd "${RUN_DIR}" && "${BUILD_DIR}/perfbench" --workload "${WORKLOAD}" --seed "${SEED}" \
  --seconds "${RUN_SECONDS}" --trace 0 >/dev/null)

PROFILE="${BUILD_DIR}/profile-${WORKLOAD}-s${SEED}.txt"
gprof -b -p "${BUILD_DIR}/perfbench" "${RUN_DIR}/gmon.out" >"${PROFILE}"
head -n "${NEPHELE_PROFILE_LINES:-40}" "${PROFILE}"
echo "(full flat profile: ${PROFILE})"
