#!/usr/bin/env bash
# Same-behaviour check between two build trees of this repository, for a
# change that must not alter what the simulator computes (a deletion, a
# refactor, host-cost work). In each tree it collects four things:
#
#   1. the stdout of the figure benches: fig04 at `40 1` and at `300`,
#      fig05-fig13 at their defaults, fig11 also at `30`, fig12 also at
#      `2000` and fig13 also at `1024` (the sizes scripts/bench_gate.sh
#      runs), then bench_ablation_cloning, bench_ext_kvm and
#      bench_ext_storage;
#   2. the stdout of the six examples, and of xl_shell driven by a fixed
#      command script;
#   3. the `"kind": "sim"` metrics of the fig04/05/11/12/13 --json
#      documents, extracted with jq (wall-clock metrics are never compared);
#   4. the sorted NEPHELE_DST_DIGEST_DUMP of `ctest -L 'dst|hvfuzz'`.
#
# It prints one line per item, `same` or `differs`, and exits 1 when any
# item differs. The collected files are removed when everything matches and
# kept (their directory is printed) when something differs.
#
# Usage: scripts/same_behaviour.sh PARENT_BUILD CHANGE_BUILD
#   e.g. git archive HEAD~1 | tar -x -C /tmp/parent
#        cmake -S /tmp/parent -B /tmp/parent/build && cmake --build /tmp/parent/build -j
#        scripts/same_behaviour.sh /tmp/parent/build build

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: scripts/same_behaviour.sh PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
command -v jq >/dev/null || { echo "same_behaviour.sh: jq is required" >&2; exit 2; }

OUT="$(mktemp -d)"

XL_SCRIPT='create web 8 4
clone 1 2
list
info
save 1
pin 1 2
console 2
destroy 3
restore web
clone 99
clone 1 9
list
info
quit
'

# Runs one bench as `NAME ARGS...` in tree $1, stdout into $2/bench-NAME_ARGS.
# With JSON set, also writes the --json document's sim metrics.
bench() {
  local build="$1" dir="$2" name="$3"
  shift 3
  local IFS=_
  local tag="${name}${*:+_$*}"
  if [[ -n "${JSON:-}" ]]; then
    "${build}/bench/bench_${name}" "$@" --json="${dir}/${tag}.json" >"${dir}/bench-${tag}"
    jq -S '.metrics | with_entries(select(.value.kind == "sim"))' "${dir}/${tag}.json" \
      >"${dir}/sim-${tag}"
    rm "${dir}/${tag}.json"
  else
    "${build}/bench/bench_${name}" "$@" >"${dir}/bench-${tag}"
  fi
}

collect() {
  local build dir
  build="$(cd "$1" && pwd)"
  dir="$2"
  mkdir -p "${dir}"
  JSON=1 bench "${build}" "${dir}" fig04_instantiation 40 1
  bench "${build}" "${dir}" fig04_instantiation 300
  JSON=1 bench "${build}" "${dir}" fig05_memory_density
  for fig in fig06_fork_clone_memsize fig07_nginx_throughput fig08_redis_save \
             fig09_fuzzing fig10_faas_memory fig11_faas_scaling fig12_request_cloning \
             fig13_cluster_scaling ablation_cloning ext_kvm ext_storage; do
    bench "${build}" "${dir}" "${fig}"
  done
  JSON=1 bench "${build}" "${dir}" fig11_faas_scaling 30
  JSON=1 bench "${build}" "${dir}" fig12_request_cloning 2000
  JSON=1 bench "${build}" "${dir}" fig13_cluster_scaling 1024
  for example in quickstart nginx_workers redis_snapshot fuzz_session faas_autoscale \
                 forkjoin_sum; do
    "${build}/examples/${example}" >"${dir}/example-${example}"
  done
  printf '%s' "${XL_SCRIPT}" | "${build}/examples/xl_shell" >"${dir}/example-xl_shell"
  local dump="${dir}/dst-dump.raw"
  rm -f "${dump}"
  (cd "${build}" && NEPHELE_DST_DIGEST_DUMP="${dump}" ctest -L 'dst|hvfuzz' -j 4 >/dev/null)
  sort "${dump}" >"${dir}/dst-digest-dump"
  rm "${dump}"
}

collect "$1" "${OUT}/parent"
collect "$2" "${OUT}/change"

status=0
for item in $(cd "${OUT}/parent" && ls); do
  if cmp -s "${OUT}/parent/${item}" "${OUT}/change/${item}"; then
    echo "same     ${item}"
  else
    echo "differs  ${item}"
    status=1
  fi
done

if [[ ${status} -eq 0 ]]; then
  rm -rf "${OUT}"
else
  echo "collected outputs kept in ${OUT} (parent/ and change/)"
fi
exit "${status}"
