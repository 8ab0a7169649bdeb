#!/usr/bin/env bash
# A/B harness over the benchmark of record (perfbench/run.py, see
# BENCHMARK.json): exports two revisions side by side, builds perfbench in
# each, then runs `perfbench/run.py --trace 0` for N pairs per workload,
# alternating which side runs first in ABBA order (pair 1 base first, pair
# 2 change first, ...), so a host that speeds up or slows down over the
# measurement does not favour one side. It prints, per workload and end-to-end
# metric, both sides' medians and quartiles, the change's relative delta,
# and how many pairs the change won.
#
#   scripts/ab.sh <base-rev> [<change-rev>]      change-rev defaults to HEAD
#
# Environment:
#   PAIRS=10                        pairs per workload
#   SEED=1                          perfbench --seed
#   SECONDS_PER_RUN=10              perfbench --seconds
#   WORKLOADS="packet_sf13 flow_exact_sf7"
#   AB_DIR=${TMPDIR:-/tmp}/d2net-ab  scratch directory for the two exports,
#                                   their .bench_build trees and the raw
#                                   results (results.jsonl, one line per run)
#
# Each revision is exported with `git archive` into AB_DIR/<commit>, so the
# harness leaves the repository and its git metadata untouched, and an
# export (with its build) is reused by later invocations. perfbench is only
# called, never edited. To measure uncommitted work, pass the commit that
# `git stash create` prints as change-rev.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || "$1" == -h || "$1" == --help ]]; then
  sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

ROOT=$(cd "$(dirname "$0")/.." && pwd)
PAIRS=${PAIRS:-10}
SEED=${SEED:-1}
SECONDS_PER_RUN=${SECONDS_PER_RUN:-10}
WORKLOADS=${WORKLOADS:-packet_sf13 flow_exact_sf7}
AB_DIR=${AB_DIR:-${TMPDIR:-/tmp}/d2net-ab}

resolve() { git -C "$ROOT" rev-parse --verify --quiet "$1^{commit}" || {
  echo "ab.sh: unknown revision '$1'" >&2
  exit 2
}; }
base=$(resolve "$1")
change=$(resolve "${2:-HEAD}")
mkdir -p "$AB_DIR"

# Exports `sha` into AB_DIR/<sha> (once) and builds perfbench_rep there the
# way perfbench/run.py does, so no timed run pays for a build.
prepare() {
  local sha=$1 dir=$AB_DIR/$1
  if [[ ! -f "$dir/.ab-exported" ]]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git -C "$ROOT" archive --format=tar "$sha" | tar -x -C "$dir"
    touch "$dir/.ab-exported"
  fi
  cmake -S "$dir/perfbench" -B "$dir/.bench_build" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir/.bench_build" --target perfbench_rep -j "$(nproc)" >/dev/null
}
echo "base   $base"
echo "change $change"
prepare "$base"
prepare "$change"

results=$AB_DIR/results.jsonl
: >"$results"
# Runs one side once and appends {workload, pair, side, result} to results.
run_side() {
  local workload=$1 pair=$2 side=$3 sha=$4 out
  out=$(cd "$AB_DIR/$sha" && python3 perfbench/run.py --workload "$workload" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1) || {
    echo "ab.sh: perfbench failed for $side ($sha) on $workload, pair $pair" >&2
    exit 1
  }
  printf '{"workload": "%s", "pair": %d, "side": "%s", "result": %s}\n' \
    "$workload" "$pair" "$side" "$out" >>"$results"
}

for workload in $WORKLOADS; do
  for ((pair = 1; pair <= PAIRS; ++pair)); do
    if ((pair % 2 == 1)); then
      run_side "$workload" "$pair" base "$base"
      run_side "$workload" "$pair" change "$change"
    else
      run_side "$workload" "$pair" change "$change"
      run_side "$workload" "$pair" base "$base"
    fi
    echo "$workload: pair $pair of $PAIRS done" >&2
  done
done

python3 - "$results" "$AB_DIR/$change/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1], encoding="utf-8")]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


for workload in dict.fromkeys(r["workload"] for r in runs):
    side = {s: {r["pair"]: r["result"] for r in runs
                if r["workload"] == workload and r["side"] == s} for s in ("base", "change")}
    pairs = sorted(side["base"].keys() & side["change"].keys())
    wrong = sum(not side[s][p]["correct"] for s in side for p in pairs)
    print(f"\n{workload}: {len(pairs)} ABBA pairs, {wrong} run(s) with correct=false")
    print(f"{'metric':<16} {'base median [q1-q3]':>28} {'change median [q1-q3]':>28} "
          f"{'delta':>8} {'wins':>6}  |delta| > base IQR")
    for name, direction in better.items():
        b = [side["base"][p]["metrics"][name]["value"] for p in pairs]
        c = [side["change"][p]["metrics"][name]["value"] for p in pairs]
        sign = -1 if direction == "lower" else 1
        wins = sum(sign * (cv - bv) > 0 for bv, cv in zip(b, c))
        bm, cm = statistics.median(b), statistics.median(c)
        (b1, b3), (c1, c3) = quartiles(b), quartiles(c)
        delta = (cm - bm) / bm * 100 if bm else 0.0
        print(f"{name:<16} {f'{bm:.4g} [{b1:.4g}-{b3:.4g}]':>28} "
              f"{f'{cm:.4g} [{c1:.4g}-{c3:.4g}]':>28} {delta:+7.2f}% {wins:>3}/{len(pairs):<2}  "
              f"{'yes' if abs(cm - bm) > b3 - b1 else 'no'}")
EOF
echo "raw results: $results"
