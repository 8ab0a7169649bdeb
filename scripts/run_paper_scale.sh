#!/usr/bin/env bash
# Runs the simulation figures at the paper-exact scale (SF q=13, MLFM h=15,
# OFT k=12; 50 us simulated per point) and stores one log per figure under
# results/full/. Figs. 6-14 run from their campaigns/*.json specs through
# d2net_campaign, journaled under results/full/<name>/ so an interrupted
# run picks up where it stopped when re-run. Within a figure, sweep points
# and exchange rows (Figs. 13/14) already run on every core:
# d2net_campaign's --jobs defaults to all hardware threads. Expect several
# hours on a single core; figures are independent, so spread them across
# machines freely, e.g.:
#   scripts/run_paper_scale.sh fig6
#   scripts/run_paper_scale.sh fig14 bench_ablation_analytic
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=(fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 bench_ablation_analytic)
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
