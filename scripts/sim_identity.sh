#!/usr/bin/env bash
# Golden-output guard for host-only changes: runs the benchmark on <base-ref>
# and on the working tree, and fails if any simulated metric or per-layer
# count differs between the two.
#
#   scripts/sim_identity.sh <base-ref> [seeds]
#   scripts/sim_identity.sh HEAD~1             # seeds 1,2,3
#   scripts/sim_identity.sh main 5,905,917
#
# <base-ref> is exported with `git archive` into a temporary directory
# (under $TMPDIR when set). Both trees are built through perfbench/run.py,
# each with its own CARGO_TARGET_DIR there. Every workload of BENCHMARK.json
# then runs once per seed with --seconds 1, with --trace 0 (end-to-end
# metrics) and --trace 1 (per-layer metrics); the base and working-tree runs
# of one configuration run side by side.
#
# Then it builds the bench/ binaries of both trees (CMake's default
# RelWithDebInfo), runs each one at its default scale, base and working
# tree side by side, and requires their standard output and exit status to
# be identical. That covers every bench that bench/CMakeLists.txt registers
# with xftl_add_bench: all but micro_stack, which prints wall-clock times.
#
# Every metric is compared exactly, and so are the correct/attempted/failed
# fields of each result, except the host-time figures, which depend on the
# machine: names containing "host", setup_s, peak_rss_mb and
# trace.overhead_frac. Exit status: 0 when everything matches, 1 on any
# difference, 2 when a run prints no result (a failed build, for instance).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <base-ref> [seeds, comma-separated; default 1,2,3]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
BASE="$(git rev-parse --verify "$1^{commit}")"
SEEDS="${2:-1,2,3}"
WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
JOBS="$(nproc 2>/dev/null || echo 4)"

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
mkdir "${TMP}/base"
git archive "${BASE}" | tar -x -C "${TMP}/base"

# run <tree> <name> <workload> <seed> <trace>: the run's result line, in
# ${TMP}/<name>.json (empty when the run printed none).
run() {
  local tree="$1" name="$2" workload="$3" seed="$4" trace="$5"
  (cd "${tree}" && CARGO_TARGET_DIR="${TMP}/target-${name}" \
    python3 perfbench/run.py --workload "${workload}" --seed "${seed}" \
      --seconds 1 --trace "${trace}" 2> "${TMP}/${name}.err" |
    tail -n 1 > "${TMP}/${name}.json") || true
}

status=0
for workload in ${WORKLOADS}; do
  for seed in ${SEEDS//,/ }; do
    for trace in 0 1; do
      run "${TMP}/base" base "${workload}" "${seed}" "${trace}" &
      run "${ROOT}" head "${workload}" "${seed}" "${trace}" &
      wait
      rc=0
      python3 - "${TMP}/base.json" "${TMP}/head.json" \
          "${workload} seed ${seed} trace ${trace}" <<'EOF' || rc=$?
import json
import sys

def load(path):
    try:
        with open(path) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None

def machine_dependent(name):
    return ("host" in name or
            name in ("setup_s", "peak_rss_mb", "trace.overhead_frac"))

base, head, label = load(sys.argv[1]), load(sys.argv[2]), sys.argv[3]
if base is None or head is None:
    side = "base" if base is None else "working tree"
    print("%s: the %s run printed no result" % (label, side))
    sys.exit(2)
diffs = []
for field in ("correct", "attempted", "failed"):
    if base.get(field) != head.get(field):
        diffs.append("%s %r -> %r" % (field, base.get(field), head.get(field)))
names = sorted(set(base["metrics"]) | set(head["metrics"]))
compared = 0
for name in names:
    if machine_dependent(name):
        continue
    compared += 1
    a = base["metrics"].get(name, {}).get("value")
    b = head["metrics"].get(name, {}).get("value")
    if a != b:
        diffs.append("%s %r -> %r" % (name, a, b))
for d in diffs:
    print("%s: DIFF %s" % (label, d))
if not diffs:
    print("%s: %d metrics identical%s" % (
        label, compared, "" if head.get("correct") else " (both runs failed)"))
sys.exit(1 if diffs else 0)
EOF
      if [ "${rc}" -gt "${status}" ]; then status="${rc}"; fi
      if [ "${rc}" -eq 2 ]; then
        tail -n 5 "${TMP}/base.err" "${TMP}/head.err" >&2
      fi
    done
  done
done

# bench_diff: builds both trees' benches, runs each pair side by side and
# compares their standard output and exit status.
bench_diff() {
  local benches tree name rc=0
  benches="$(sed -n 's/^xftl_add_bench(\(.*\))$/\1/p' bench/CMakeLists.txt)"
  for tree in base head; do
    local src="${TMP}/base"
    [ "${tree}" = head ] && src="${ROOT}"
    if ! { cmake -S "${src}" -B "${TMP}/build-${tree}" > /dev/null &&
           cmake --build "${TMP}/build-${tree}" -j "${JOBS}" \
             --target ${benches} > "${TMP}/build-${tree}.log" 2>&1; }; then
      tail -n 20 "${TMP}/build-${tree}.log" >&2
      echo "bench: the ${tree} build failed"
      return 2
    fi
  done
  for name in ${benches}; do
    for tree in base head; do
      mkdir -p "${TMP}/run-${tree}"
      (cd "${TMP}/run-${tree}" &&
        "${TMP}/build-${tree}/bench/${name}" > "${TMP}/${name}.${tree}.out" \
          2> /dev/null; echo "$?" >> "${TMP}/${name}.${tree}.out") &
    done
    wait
    # The last line of each output is the bench's exit status.
    if cmp -s "${TMP}/${name}.base.out" "${TMP}/${name}.head.out"; then
      echo "bench ${name}: $(wc -l < "${TMP}/${name}.head.out") lines identical"
    else
      echo "bench ${name}: DIFF"
      diff "${TMP}/${name}.base.out" "${TMP}/${name}.head.out" | head -n 10
      rc=1
    fi
  done
  return "${rc}"
}

rc=0
bench_diff || rc=$?
if [ "${rc}" -gt "${status}" ]; then status="${rc}"; fi

if [ "${status}" -eq 0 ]; then
  echo "sim_identity: every simulated metric matches ${BASE:0:12}"
else
  echo "sim_identity: differences against ${BASE:0:12}" >&2
fi
exit "${status}"
