#!/usr/bin/env python3
"""Serial end-to-end and per-layer benchmark of the d2net simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/ (the d2net libraries plus the perfbench_rep
driver) into .bench_build, then starts one perfbench_rep process per
repetition of the workload until about S seconds have passed and at least
MIN_REPS repetitions of each needed kind are in. Each repetition sets up
once and runs the workload's points for a fixed number of passes; the
first pass is a warm-up and the others are timed. Every simulated point is
checked. The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run interleaves
untraced repetitions, whose wall time gives trace.overhead_s.

    python3 perfbench/run.py --record-reference

re-records perfbench/reference.json (the default-seed values the output
checks compare against). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
REP_BINARY = BUILD / "perfbench_rep"
REFERENCE = HERE / "reference.json"

# Every metric is a median over at least this many processes of each kind
# (each process times two or more passes of the workload).
MIN_REPS = 2
# No repetition starts unless it is expected to end by then (a run must
# finish within 180 s).
RUN_BUDGET_S = 160.0
# accepted <= offered * (1 + ACCEPT_SLACK): Poisson arrivals and warmup-born
# packets delivered inside the window let accepted exceed offered slightly.
ACCEPT_SLACK = 0.03
# Relative tolerance of the flow-engine reference values: a speed-only change
# that reorders floating-point sums in the water-filling may move a few
# completions across the window edge.
FLOW_REL_TOL = 1e-3
# Simulated results that must repeat exactly across the repetitions of one run.
SIM_KEYS = ("events", "injected", "delivered", "in_flight", "accepted", "fraction_minimal",
            "completion_us")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "delivered_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "topology.build_s": "s",
    "routing.table_build_s": "s",
    "routing.table_mb": "MB",
    "routing.route_ns": "ns",
    "routing.fraction_minimal.uniform": "fraction",
    "routing.fraction_minimal.worst_case": "fraction",
    "sim.traffic_build_s": "s",
    "sim.stack_build_s": "s",
    "engine.run_s": "s",
    "engine.run_s.uniform": "s",
    "engine.events.uniform": "count",
    "engine.events.worst_case": "count",
    "engine.ns_per_event.uniform": "ns",
    "engine.events_per_delivered.uniform": "ratio",
    "sim.grants": "count",
    "sim.credit_blocked_skips": "count",
    "sim.injection_credit_stalls": "count",
    "sim.credit_stall_frac": "fraction",
    "sim.pool_slots": "count",
    "flowsim.flows_started": "count",
    "flowsim.flows_completed": "count",
    "trace.root_self_s": "s",
    "trace.overhead_s": "s",
    "host.probe_s": "s",
}

# Host seconds one round of perfbench_rep's host probe takes on a quiet
# 4-vCPU Intel Xeon VM (105 MiB L3) with GCC 12.2, Release. End-to-end
# times are reported in reference seconds: each phase's host seconds times
# PROBE_REF_S over the mean of the two probes around that phase, so that
# host drift between and within runs, which slows the probe too, cancels.
PROBE_REF_S = 0.18


class RepFailed(Exception):
    """A perfbench_rep process that crashed, timed out or printed no result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def checkout_env():
    """Environment that keeps git (the build's `git describe`, the
    fingerprint) from searching directories above the checkout."""
    return dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))


def build():
    """Configures (once) and builds perfbench_rep into BUILD."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=checkout_env())
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_rep", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_rep(workload, seed, traced, timeout):
    """One workload repetition in a fresh process; returns its parsed JSON."""
    cmd = [str(REP_BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise RepFailed(f"repetition exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise RepFailed(f"perfbench_rep exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise RepFailed(f"perfbench_rep printed no result: {e}") from e


def measure(workload, seed, seconds, trace):
    """Repeats the workload; returns [(traced, rep or {"error": text})].

    Once MIN_REPS of each kind are in, a repetition starts only if at least
    half of it is expected to fit in `seconds`."""
    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        untraced = sum(1 for traced, _ in reps if not traced)
        traced_count = len(reps) - untraced
        elapsed = time.monotonic() - start
        enough = untraced >= MIN_REPS and (not trace or traced_count >= MIN_REPS)
        if enough and elapsed + 0.5 * elapsed / len(reps) >= seconds:
            break
        # A repetition's simulated work is fixed by the seed, so a failure
        # repeats; stop instead of spinning until the deadline.
        if sum(1 for _, rep in reps if "error" in rep) >= MIN_REPS:
            break
        if reps and elapsed + 1.5 * longest > RUN_BUDGET_S:
            log(f"stopping after {len(reps)} repetitions to stay inside the run budget")
            break
        traced = trace and traced_count < untraced
        t0 = time.monotonic()
        try:
            rep = run_rep(workload, seed, traced, timeout=max(10.0, RUN_BUDGET_S - elapsed))
        except RepFailed as e:
            rep = {"error": str(e)}
        longest = max(longest, time.monotonic() - t0)
        reps.append((traced, rep))
    return reps


def check_point(point, ref, engine):
    """Names of the output checks `point` fails; `ref` is None off the default seed."""
    if "error" in point:
        return [f"threw ({point['error']})"]
    failed = []
    if point["timed_out"]:
        failed.append("timed_out")
    if not point["passes_agree"]:
        failed.append("passes_agree")
    if point["kind"] == "fluid_a2a":
        if not point["completed"]:
            failed.append("a2a_completed")
        if point["delivered_bytes"] != point["total_bytes"]:
            failed.append("a2a_delivered_bytes")
    else:
        if point["wedged"]:
            failed.append("wedged")
        if point["injected"] != point["delivered"] + point["in_flight"]:
            failed.append("conservation")
        if point["delivered"] > point["injected"]:
            failed.append("completed<=started")
        if point["accepted"] > point["offered"] * (1.0 + ACCEPT_SLACK):
            failed.append("accepted<=offered")
    for key, want in (ref or {}).items():
        got = point.get(key)
        if engine == "packet":
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= FLOW_REL_TOL * abs(want)
        if not ok:
            failed.append(f"reference.{key} (got {got}, want {want})")
    return failed


def check_reps(workload, seed, reps, reference):
    """Checks every point of every repetition.

    Returns (attempted, failed, failures): points attempted, points that
    failed at least one check, and one line per failed point naming the
    checks it failed.
    """
    wref = reference["workloads"][workload]
    use_ref = seed == reference["seed"]
    attempted = 0
    failed = 0
    failures = []
    first = {}
    for i, rep in enumerate(reps):
        if "error" in rep:
            attempted += len(wref["points"])
            failed += len(wref["points"])
            failures.append(f"repetition {i}: {rep['error']}")
            continue
        points = {p["name"]: p for p in rep["points"]}
        for name, ref in wref["points"].items():
            attempted += 1
            point = points.get(name)
            if point is None:
                problems = ["missing"]
            else:
                problems = check_point(point, ref if use_ref else None, wref["engine"])
                sim = {k: point.get(k) for k in SIM_KEYS}
                if "error" not in point and first.setdefault(name, sim) != sim:
                    problems.append("repeatable")
            if problems:
                failed += 1
                failures.append(f"repetition {i} point {name}: {', '.join(problems)}")
    return attempted, failed, failures


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layout(rep):
    """Splits a repetition's spans into its phases.

    Returns (setup, setup_s, probes, passes): the durations of the set-up
    calls, the host seconds from the first of them to the end of the last,
    the durations of the host probes in order, and per pass the duration
    of each engine call keyed by point name. perfbench_rep runs a probe
    before set-up and after set-up and every pass, so probes[k] and
    probes[k + 1] enclose phase k (set-up, then the passes)."""
    spans = rep["spans"]
    top = [s for s in spans if s["parent"] == 0]
    setup = [s for s in top if s["name"] not in ("host.probe", "routing.probe")
             and not s["name"].startswith("pass.")]
    probes = [s["end"] - s["start"] for s in top if s["name"] == "host.probe"]
    passes = {i: {} for i, s in enumerate(spans) if s["name"].startswith("pass.")}
    for s in spans:
        if s["parent"] in passes:
            passes[s["parent"]][s["name"][len("engine."):]] = s["end"] - s["start"]
    passes = [passes[i] for i in sorted(passes)]
    if len(probes) != len(passes) + 2:
        raise ValueError(f"{len(probes)} host probes around {len(passes)} passes")
    return ({s["name"]: s["end"] - s["start"] for s in setup},
            max(s["end"] for s in setup) - min(s["start"] for s in setup), probes, passes)


def to_reference(seconds, probe_before, probe_after):
    """Host seconds scaled to a host whose probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def rep_end_to_end(rep):
    """What one repetition contributes to the end-to-end metrics: its set-up
    time, peak RSS, open-loop deliveries and the engine calls of its timed
    passes (every pass after the warm-up), times in reference seconds."""
    _, setup_s, probes, passes = layout(rep)
    open_loop = [p for p in rep["points"] if p["kind"] == "open_loop"]
    return {
        "setup_s": to_reference(setup_s, probes[0], probes[1]),
        "peak_rss_mb": rep["peak_rss_mb"],
        "open_loop": [p["name"] for p in open_loop],
        "delivered": sum(p["delivered"] for p in open_loop),
        "passes": [{name: to_reference(t, probes[k + 1], probes[k + 2])
                    for name, t in calls.items()}
                   for k, calls in enumerate(passes) if k > 0],
    }


def rep_per_layer(rep):
    durations, _, probes, passes = layout(rep)
    warm = passes[1:]
    engine = {name: statistics.median(calls[name] for calls in warm) for name in warm[0]}
    points = {p["name"]: p for p in rep["points"]}
    uni = points["uniform"]
    wc = points.get("worst_case")
    counters = [p["metrics"] for p in rep["points"] if "metrics" in p]
    port_time = sum(c["port_time_ps"] for c in counters)
    flow = rep["engine"] == "flow"
    open_loop = [p for p in rep["points"] if p["kind"] == "open_loop"]
    return {
        "topology.build_s": durations["topology.build"],
        "routing.table_build_s": durations["routing.table"],
        "routing.table_mb": rep["table_mb"],
        "routing.route_ns": rep["route_ns"],
        "routing.fraction_minimal.uniform": uni["fraction_minimal"],
        "routing.fraction_minimal.worst_case": wc["fraction_minimal"] if wc else 0.0,
        "sim.traffic_build_s": durations["sim.traffic"],
        "sim.stack_build_s": durations["sim.stack"],
        "engine.run_s": statistics.median(sum(calls.values()) for calls in warm),
        "engine.run_s.uniform": engine["uniform"],
        "engine.events.uniform": uni["events"],
        "engine.events.worst_case": wc["events"] if wc else 0,
        "engine.ns_per_event.uniform": engine["uniform"] * 1e9 / uni["events"],
        "engine.events_per_delivered.uniform": uni["events"] / uni["delivered"],
        "sim.grants": sum(c["grants"] for c in counters),
        "sim.credit_blocked_skips": sum(c["credit_blocked_skips"] for c in counters),
        "sim.injection_credit_stalls": sum(c["injection_credit_stalls"] for c in counters),
        "sim.credit_stall_frac":
            sum(c["credit_stall_ps"] for c in counters) / port_time if port_time else 0.0,
        "sim.pool_slots": max((c["pool_slots"] for c in counters), default=0),
        "flowsim.flows_started": sum(p["injected"] for p in open_loop) if flow else 0,
        "flowsim.flows_completed": sum(p["delivered"] for p in open_loop) if flow else 0,
        "trace.root_self_s": self_times(rep["spans"])[0],
        "host.probe_s": statistics.median(probes),
    }


def medians(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def end_to_end(samples):
    """Reduces rep_end_to_end() samples to the end-to-end metrics: each
    engine call is timed by its median over every timed pass of the run,
    set-up by its median over the run's repetitions, and wall_s is set-up
    plus one pass of those median calls."""
    passes = [calls for s in samples for calls in s["passes"]]
    engine = {name: statistics.median(calls[name] for calls in passes) for name in passes[0]}
    setup_s = statistics.median(s["setup_s"] for s in samples)
    return {
        "wall_s": setup_s + sum(engine.values()),
        "setup_s": setup_s,
        "delivered_per_s": samples[0]["delivered"] / sum(engine[name]
                                                         for name in samples[0]["open_loop"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def summarize(reps, trace, attempted, failed):
    """The result object for `reps` ([(traced, rep)], failed repetitions excluded)."""
    untraced = end_to_end([rep_end_to_end(r) for t, r in reps if not t])
    if trace:
        values = medians([rep_per_layer(r) for t, r in reps if t])
        traced = end_to_end([rep_end_to_end(r) for t, r in reps if t])
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = PER_LAYER
    else:
        values = untraced
        values["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def read_first_line(path, prefix=""):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(prefix):
                    return line[len(prefix):].strip(" :\t\n")
    except OSError:
        pass
    return "unknown"


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              env=checkout_env(), capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (no git metadata)"


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the code
    where git describe cannot."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(rep):
    return {
        "cores_usable": len(os.sched_getaffinity(0)),
        "cores_online": os.cpu_count(),
        "cgroup_cpu_max": read_first_line("/sys/fs/cgroup/cpu.max"),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "compiler": rep["compiler"],
        "build_type": rep["build_type"],
        "git_describe": git_describe(),
        "source_digest": source_digest(),
    }


def write_record(args, fp, result, failures, reps):
    """Writes the run's fingerprint, failures, result and traced spans (with
    self times) to .bench_build/runs."""
    traces = []
    for traced, rep in reps:
        if traced:
            spans = rep["spans"]
            traces.append([dict(s, self_s=st) for s, st in zip(spans, self_times(spans))])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": fp, "failures": failures, "result": result,
              "repetitions": [dict(rep_end_to_end(r), traced=t,
                                   host=dict(zip(("setup", "setup_s", "probes", "passes"),
                                                 layout(r))))
                              for t, r in reps],
              "traced_spans": traces}
    out = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def record_reference():
    """Re-records reference.json from one untraced repetition per workload."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for workload, wref in reference["workloads"].items():
        rep = run_rep(workload, reference["seed"], False, timeout=RUN_BUDGET_S)
        points = {p["name"]: p for p in rep["points"]}
        for name, ref in wref["points"].items():
            for key in ref:
                ref[key] = points[name][key]
        log(f"recorded {workload}")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if not args.record_reference and args.workload not in reference["workloads"]:
        log(f"unknown workload {args.workload!r}; known: {', '.join(reference['workloads'])}")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.record_reference:
        record_reference()
        return 0

    reps = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    attempted, failed, failures = check_reps(args.workload, args.seed, [r for _, r in reps],
                                             reference)
    for line in failures:
        log(f"check failed: {line}")
    done = [(t, r) for t, r in reps if "error" not in r]
    if not any(not t for t, _ in done) or (args.trace and not any(t for t, _ in done)):
        log("no repetition completed")
        return 1
    result = summarize(done, args.trace == 1, attempted, failed)
    fp = fingerprint(done[0][1])
    write_record(args, fp, result, failures, done)
    print("host " + json.dumps(fp, sort_keys=True))
    print(f"repetitions {len(done)} of {len(reps)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
