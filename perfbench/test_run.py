"""Tests of the benchmark itself. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build perfbench_rep if needed and run a few single repetitions
(about half a minute in all).
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def packet_point(ref):
    """A packet-engine point that passes every check against `ref`."""
    in_flight = ref["injected"] - ref["delivered"]
    return dict(ref, name="uniform", kind="open_loop", offered=0.7, in_flight=in_flight,
                timed_out=False, wedged=False, passes_agree=True)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
        cls.untraced = run.run_rep("flow_exact_sf7", 1, False, timeout=120)
        cls.traced = run.run_rep("flow_exact_sf7", 1, True, timeout=120)

    def test_every_metric_prints_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(self.reference["workloads"]))
        reps = [(False, self.untraced), (True, self.traced)]
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.summarize(reps, trace, attempted=2, failed=0)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(result["metrics"]), list(units))
            for name, metric in result["metrics"].items():
                self.assertEqual(metric, {"value": metric["value"], "unit": units[name]})
                self.assertIsInstance(metric["value"], (int, float), name)
            json.dumps(result, allow_nan=False)

    def test_default_seed_passes_every_check(self):
        attempted, failed, failures = run.check_reps(
            "flow_exact_sf7", 1, [self.untraced, self.traced], self.reference)
        # Two repetitions of two points (uniform, a2a).
        self.assertEqual((attempted, failed), (4, 0), failures)

    def test_corrupted_flow_reference_trips_the_check(self):
        bad = copy.deepcopy(self.reference)
        bad["workloads"]["flow_exact_sf7"]["points"]["uniform"]["delivered"] += 100
        attempted, failed, failures = run.check_reps("flow_exact_sf7", 1, [self.untraced], bad)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("reference.delivered", failures[0])
        result = run.summarize([(False, self.untraced)], False, attempted, failed)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.5)
        # Off the default seed the reference is not consulted.
        self.assertEqual(run.check_reps("flow_exact_sf7", 7, [self.untraced], bad)[1], 0)

    def test_packet_reference_is_exact_and_invariants_are_checked(self):
        ref = self.reference["workloads"]["packet_sf13"]["points"]["uniform"]
        self.assertEqual(run.check_point(packet_point(ref), ref, "packet"), [])
        self.assertEqual(run.check_point(packet_point(dict(ref, events=ref["events"] + 1)),
                                         ref, "packet"),
                         [f"reference.events (got {ref['events'] + 1}, want {ref['events']})"])
        broken = {
            "timed_out": dict(packet_point(ref), timed_out=True),
            "wedged": dict(packet_point(ref), wedged=True),
            "conservation": dict(packet_point(ref), in_flight=0),
            "accepted<=offered": dict(packet_point(ref), accepted=0.9),
            "passes_agree": dict(packet_point(ref), passes_agree=False),
        }
        for check, point in broken.items():
            self.assertIn(check, run.check_point(point, None, "packet"))
        self.assertTrue(run.check_point({"error": "boom"}, None, "packet")[0].startswith("threw"))

    def test_span_self_times_sum_to_at_most_the_root(self):
        for rep in (self.untraced, self.traced):
            spans = rep["spans"]
            self.assertEqual([s["parent"] for s in spans].count(-1), 1)
            self.assertEqual(spans[0]["parent"], -1)
            for s in spans[1:]:
                parent = spans[s["parent"]]
                self.assertLessEqual(parent["start"], s["start"])
                self.assertLessEqual(s["end"], parent["end"])
            selfs = run.self_times(spans)
            self.assertLessEqual(sum(selfs), spans[0]["end"] - spans[0]["start"] + 1e-9)
            self.assertGreaterEqual(min(selfs), -1e-9)
        self.assertIn("routing.probe", [s["name"] for s in self.traced["spans"]])
        self.assertGreater(self.traced["route_ns"], 0.0)

    def test_seed_reaches_sim_config_and_changes_the_inputs(self):
        other = run.run_rep("flow_exact_sf7", 2, False, timeout=120)
        self.assertEqual((self.untraced["config_seed"], other["config_seed"]), (1, 2))
        keys = ("events", "injected", "delivered", "accepted")
        a, b = self.untraced["points"][0], other["points"][0]
        self.assertNotEqual([a[k] for k in keys], [b[k] for k in keys])
        # The worst-case permutation is generated from the seed too.
        p1 = run.run_rep("packet_sf13", 1, False, timeout=120)
        p2 = run.run_rep("packet_sf13", 2, False, timeout=120)
        self.assertNotEqual(p1["inputs_digest"], p2["inputs_digest"])
        self.assertEqual(run.check_reps("packet_sf13", 1, [p1], self.reference)[1], 0)

    def test_fails_without_the_simulator_sources(self):
        isolated = run.BUILD / "isolated-test"
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(run.HERE, isolated / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", isolated)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "packet_sf13", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=isolated, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
