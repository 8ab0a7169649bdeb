#!/usr/bin/env bash
# Runs the simulation figures at the paper-exact scale (SF q=13, MLFM h=15,
# OFT k=12; 50 us simulated per point) and stores one log per figure under
# results/full/. Figs. 6-13 run from their campaigns/*.json specs through
# d2net_campaign, journaled under results/full/<name>/ so an interrupted
# run picks up where it stopped when re-run. Expect several hours on a
# single core; figures are independent, so parallelize across
# machines/cores freely, e.g.:
#   scripts/run_paper_scale.sh fig6
#   scripts/run_paper_scale.sh bench_fig14_nearest_neighbor
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=(fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
      bench_fig14_nearest_neighbor bench_ablation_analytic)
if [[ $# -gt 0 ]]; then RUNS=("$@"); fi

mkdir -p results/full
for r in "${RUNS[@]}"; do
  echo "=== $r --full ==="
  if [[ -f "campaigns/$r.json" ]]; then
    ./build/bench/d2net_campaign --spec="campaigns/$r.json" --full \
      --journal="results/full/$r" --resume 2>&1 | tee "results/full/$r.txt"
  else
    ./build/bench/"$r" --full 2>&1 | tee "results/full/$r.txt"
  fi
done
echo "done; logs in results/full/"
