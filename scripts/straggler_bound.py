#!/usr/bin/env python3
"""Bound what splitting straggler sweep points across cores could save.

A sweep runs its points on a pool of JOBS workers; its wall time is set by
the points that start last or run longest (the stragglers). Splitting one
point across several cores could at best shorten each sweep to its perfect
split: the sweep's total point time divided by JOBS. This script measures
that bound from a campaign journal (d2net_campaign --journal DIR):

  * replay: for each sweep (journal scope), the journaled per-point
    wall_seconds list-scheduled in index order onto JOBS workers, each
    point starting on the first worker to free up, as the sweep runner's
    thread pool hands them out. It should reproduce the measured sweep
    walls; compare them with --json.
  * makespan: the measured sweep walls from the run's --json report, or
    the replay when no report is given.
  * perfect split: sum over sweeps of total point seconds / JOBS.
  * bound: (makespan - perfect split) / makespan, the largest share of the
    wall time any splitting of points could save.

Usage:
  scripts/straggler_bound.py --journal DIR --jobs 4 [--json RUN.json]
      [--name fig6 --args "--full --duration-us 4 --warmup-us 1"]
      [--update BENCH_core.json]

--update merges the totals into a flat BENCH_*.json as straggler_<name>_*
keys (see docs/perf.md, "Sweep stragglers").
"""

import argparse
import heapq
import json
import os
import sys


def read_journal(path):
    """Per-scope lists of point wall seconds, ordered by point index."""
    scopes = {}
    with open(os.path.join(path, "journal.jsonl"), encoding="utf-8") as f:
        for line in f:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn final line
            scope, _, index = entry["key"].rpartition("#")
            # A later entry for the same key (a resumed re-run) wins.
            scopes.setdefault(scope, {})[int(index)] = float(entry["wall_seconds"])
    return {scope: [pts[i] for i in sorted(pts)] for scope, pts in scopes.items()}


def list_schedule(walls, jobs):
    """Makespan of running `walls` in order on `jobs` identical workers."""
    free = [0.0] * jobs
    for w in walls:
        heapq.heapreplace(free, free[0] + w)
    return max(free)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--journal", required=True, help="campaign journal directory")
    parser.add_argument("--jobs", type=int, required=True, help="--jobs of the run")
    parser.add_argument("--json", help="the run's --json report (measured sweep walls)")
    parser.add_argument("--name", default="campaign", help="key prefix for --update")
    parser.add_argument("--args", default="", help="run arguments, recorded with --update")
    parser.add_argument("--update", help="flat BENCH_*.json to merge the totals into")
    opts = parser.parse_args()
    if opts.jobs < 1:
        sys.exit("--jobs must be >= 1")

    scopes = read_journal(opts.journal)
    measured = {}
    if opts.json:
        with open(opts.json, encoding="utf-8") as f:
            measured = {s["title"]: float(s["wall_seconds"]) for s in json.load(f)["sweeps"]}

    totals = {"points": 0, "replayed": 0.0, "makespan": 0.0, "split": 0.0}
    print(f"{'sweep':<32} {'points':>6} {'measured':>9} {'replayed':>9} {'split':>9}")
    for scope, walls in scopes.items():
        replayed = list_schedule(walls, opts.jobs)
        split = sum(walls) / opts.jobs
        wall = measured.get(scope, replayed)
        meas = f"{measured[scope]:9.2f}" if scope in measured else f"{'-':>9}"
        print(f"{scope:<32} {len(walls):6d} {meas} {replayed:9.2f} {split:9.2f}")
        totals["points"] += len(walls)
        totals["replayed"] += replayed
        totals["makespan"] += wall
        totals["split"] += split
    bound = (totals["makespan"] - totals["split"]) / totals["makespan"] * 100.0
    print(f"makespan {totals['makespan']:.1f} s ({'measured' if measured else 'replayed'}), "
          f"replayed {totals['replayed']:.1f} s, perfect split {totals['split']:.1f} s: "
          f"straggler splitting saves at most {bound:.1f}%")

    if opts.update:
        with open(opts.update, encoding="utf-8") as f:
            bench = json.load(f)
        prefix = f"straggler_{opts.name}_"
        bench[prefix + "args"] = opts.args
        bench[prefix + "jobs"] = opts.jobs
        bench[prefix + "points"] = totals["points"]
        bench[prefix + "makespan_s"] = round(totals["makespan"], 2)
        bench[prefix + "replayed_s"] = round(totals["replayed"], 2)
        bench[prefix + "perfect_split_s"] = round(totals["split"], 2)
        bench[prefix + "bound_pct"] = round(bound, 1)
        with open(opts.update, "w", encoding="utf-8") as f:
            json.dump(bench, f, indent=2, ensure_ascii=False)
            f.write("\n")


if __name__ == "__main__":
    main()
