#!/usr/bin/env python3
"""Offline tests of benchmark/run.py: no build, no qlinkbench process.

    python3 -m unittest benchmark/test_run.py
"""

import contextlib
import io
import json
import os
import re
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fake_result(workload, seed=7, digest="00ff", **over):
    """A qlinkbench result line as the binary prints it."""
    routed = workload in run.ROUTED
    counters = {
        "requests.submitted": 100.0, "requests.completed": 100.0,
        "requests.pairs": 120.0, "requests.failed": 0.0,
        "requests.unsettled": 0.0, "sim.events": 5000.0,
        "core.egp_attempts": 400.0, "core.egp_successes": 20.0,
    }
    if routed:
        counters.update({"routing.submitted": 100.0, "routing.blocked": 10.0,
                         "routing.pairs_delivered": 120.0,
                         "routing.timed_deliveries": 120.0})
    result = {
        "workload": workload, "seed": seed, "build_type": "Release",
        "ndebug": True, "traced": False, "instances": 2, "reps": 3,
        "digest": digest, "repeats_match": True, "measured_s": 3.0,
        "first_run_s": [1.0, 1.0], "rep_instance": [0, 1, 0],
        "rep_completed": [50, 50, 50], "rep_setup_s": [0.1, 0.2, 0.3],
        "rep_run_s": [1.0, 1.0, 3.0], "peak_rss_mb": 12.5, "sim_s": 60.0,
        "min_fidelity_requested": 0.4,
        "model": {"latency_p50_s": 0.2, "latency_p90_s": 0.5,
                  "latency_samples": 100, "mean_fidelity": 0.6,
                  "fidelity_min": 0.45, "pairs": 120},
        "counters": counters,
        "labels": {"mhp.cycle": {"count": 3000, "wall_s": 0.3},
                   "flow.deliver": {"count": 120, "wall_s": 0.05}},
        "spans": {"router.deliver": {"count": 120, "total_s": 0.02,
                                     "self_s": 0.01},
                  "setup.network": {"count": 2, "total_s": 0.4,
                                    "self_s": 0.4}},
    }
    if workload == "grid-full":
        result["twin"] = {"latency_p50_s": 0.22, "latency_p90_s": 0.45,
                          "latency_samples": 100, "mean_fidelity": 0.63,
                          "fidelity_min": 0.41, "pairs": 120}
    result.update(over)
    return result


class FakeRunner:
    """Stands in for run_binary; `patch(extra)` edits selected results."""

    def __init__(self, patch=None):
        self.patch = patch or (lambda w, extra, r: r)
        self.calls = []

    def __call__(self, workload, seed, seconds, extra=()):
        self.calls.append((workload, seed, seconds, tuple(extra)))
        return self.patch(workload, tuple(extra), fake_result(workload, seed))


def run_main(argv, runner, build_fn=lambda: None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, runner=runner, build_fn=build_fn)
    return code, out.getvalue().strip().splitlines()


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(run.spread([2.5]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)

    def test_requests_per_s_counts_each_instance_once(self):
        # Instance 0 ran twice (1 s and 3 s): its median, 2 s, counts.
        r = fake_result("flow-scale")
        self.assertAlmostEqual(run.requests_per_s(r), 100.0 / 3.0)

    def test_end_to_end_metrics(self):
        m = run.end_to_end(fake_result("islands"))
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["pairs_per_sim_s"], 2.0)
        self.assertAlmostEqual(m["completed_fraction"], 1.0)

    def test_flow_error_is_the_worst_relative_error(self):
        self.assertAlmostEqual(run.flow_error(fake_result("grid-full")), 0.1)
        self.assertIsNone(run.flow_error(fake_result("flow-scale")))


class Bounds(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(run.worse_by("lower", 10.0, 11.0), 0.1)
        self.assertTrue(run.within_bound("lower", 10.0, 11.0, 0.1))
        self.assertFalse(run.within_bound("lower", 10.0, 11.5, 0.1))
        self.assertTrue(run.within_bound("lower", 10.0, 2.0, 0.1))

    def test_higher_is_better(self):
        self.assertAlmostEqual(run.worse_by("higher", 10.0, 9.0), 0.1)
        self.assertTrue(run.within_bound("higher", 10.0, 9.0, 0.1))
        self.assertFalse(run.within_bound("higher", 10.0, 8.5, 0.1))
        self.assertTrue(run.within_bound("higher", 10.0, 50.0, 0.1))

    def test_absolute_floor(self):
        # 5 ms -> 9 ms is 80% worse but inside a 20 ms floor.
        self.assertTrue(run.within_bound("lower", 0.005, 0.009, 0.25, 0.02))
        self.assertFalse(run.within_bound("lower", 0.005, 0.009, 0.25))
        self.assertFalse(run.within_bound("lower", 0.1, 0.2, 0.25, 0.02))

    def test_zero_base(self):
        self.assertTrue(run.within_bound("lower", 0.0, 0.0, 0.1))
        self.assertFalse(run.within_bound("lower", 0.0, 1.0, 0.1))


class Tables(unittest.TestCase):
    def test_units_and_names(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, (unit, better) in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
                self.assertIn(better, ("higher", "lower"))
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_per_layer_names_have_layer_prefixes(self):
        prefixes = {"sim", "proto", "net", "core", "qstate", "netlayer",
                    "routing", "workload", "obs", "metrics", "setup",
                    "trace"}
        for name in run.PER_LAYER:
            self.assertIn(name.split(".")[0], prefixes)

    def test_per_layer_computes_every_listed_metric(self):
        for w in run.WORKLOADS:
            base = fake_result(w)
            m = run.per_layer(w, base, fake_result(w, traced=True), {})
            self.assertEqual(set(m), set(run.PER_LAYER), w)


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.BENCHMARK_JSON) as f:
            cls.raw = f.read()
        cls.doc = json.loads(cls.raw)

    def test_top_level_keys(self):
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds",
                                         "workloads", "end_to_end",
                                         "per_layer"})
        self.assertLessEqual(len(self.raw.encode()), 64 * 1024)

    def test_command_and_paths(self):
        cmd, paths = self.doc["command"], self.doc["paths"]
        self.assertTrue(1 <= len(cmd) <= 32)
        self.assertEqual(cmd[0], "python3")
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
        self.assertTrue(any(cmd[1].startswith(p.rstrip("/") + "/")
                            for p in paths))
        here = os.path.basename(os.path.dirname(os.path.abspath(__file__)))
        self.assertIn(here, [p.rstrip("/") for p in paths])

    def test_run_seconds(self):
        s = self.doc["run_seconds"]
        self.assertIsInstance(s, int)
        self.assertTrue(1 <= s <= 60)

    def test_workloads(self):
        ws = self.doc["workloads"]
        self.assertEqual([w["name"] for w in ws], run.WORKLOADS)
        for w in ws:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_matches_run_table(self):
        e2e = self.doc["end_to_end"]
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in e2e},
                         run.END_TO_END)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 <= m["bound"] <= 0.25)
        bounds = {m["name"]: m["bound"] for m in e2e}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual(run.load_bounds(), bounds)

    def test_per_layer_matches_run_table(self):
        per = self.doc["per_layer"]
        self.assertTrue(1 <= len(per) <= 128)
        for m in per:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in per},
                         run.PER_LAYER)

    def test_names_unique(self):
        names = ([w["name"] for w in self.doc["workloads"]]
                 + [m["name"] for m in self.doc["end_to_end"]]
                 + [m["name"] for m in self.doc["per_layer"]])
        self.assertEqual(len(names), len(set(names)))


class Main(unittest.TestCase):
    def test_passing_run_prints_the_result_line(self):
        code, lines = run_main(["--workload", "flow-scale", "--seed", "3"],
                               FakeRunner())
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 100)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], run.END_TO_END[name][0])

    def test_failing_check_exits_non_zero(self):
        def unsettled(w, extra, r):
            r["counters"]["requests.unsettled"] = 3.0
            return r
        code, lines = run_main(["--workload", "islands"],
                               FakeRunner(unsettled))
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertIn("[FAIL]", "\n".join(lines))

    def test_flow_error_above_tolerance_fails(self):
        def far(w, extra, r):
            r["twin"]["mean_fidelity"] = 0.3
            return r
        code, _ = run_main(["--workload", "grid-full"], FakeRunner(far))
        self.assertEqual(code, 1)

    def test_debug_build_fails(self):
        def debug(w, extra, r):
            r["ndebug"] = False
            return r
        code, _ = run_main(["--workload", "link-mixed"], FakeRunner(debug))
        self.assertEqual(code, 1)

    def test_build_failure_prints_no_result(self):
        def broken():
            raise OSError("no ../src")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, lines = run_main(["--workload", "islands"], FakeRunner(),
                                   build_fn=broken)
        self.assertEqual(code, 1)
        self.assertEqual(lines, [])

    def test_traced_run_reports_per_layer_metrics_and_legs(self):
        runner = FakeRunner()
        with tempfile.TemporaryDirectory() as d:
            code, lines = run_main(["--workload", "islands", "--trace", d],
                                   runner)
            self.assertTrue(os.path.exists(
                os.path.join(d, "layers_islands.json")))
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        extras = [c[3] for c in runner.calls]
        self.assertIn(("--scale", "0.25", "--parallel", "off"), extras)
        self.assertIn(("--scale", "0.25", "--parallel", "auto"), extras)

    def test_traced_digest_mismatch_fails(self):
        def perturbed(w, extra, r):
            if extra[:1] == ("--trace",):
                r["digest"] = "beef"
            return r
        with tempfile.TemporaryDirectory() as d:
            code, _ = run_main(["--workload", "flow-scale", "--trace", d],
                               FakeRunner(perturbed))
        self.assertEqual(code, 1)

    def test_obs_detached_digest_mismatch_fails(self):
        def perturbed(w, extra, r):
            if extra == ("--obs", "off"):
                r["digest"] = "beef"
            return r
        with tempfile.TemporaryDirectory() as d:
            code, _ = run_main(["--workload", "flow-scale", "--trace", d],
                               FakeRunner(perturbed))
        self.assertEqual(code, 1)

    def test_repeat_alternates_order_and_compares_to_baseline(self):
        runner = FakeRunner()
        code, lines = run_main(["--repeat", "2"], runner)
        self.assertEqual(code, 0)
        order = [c[0] for c in runner.calls]
        self.assertEqual(order, run.WORKLOADS + run.WORKLOADS[::-1])
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(lines[-1])
        try:
            code, _ = run_main(["--repeat", "2", "--baseline", f.name],
                               FakeRunner())
            self.assertEqual(code, 0)

            def slower(w, extra, r):
                r["rep_run_s"] = [t * 2 for t in r["rep_run_s"]]
                return r
            code, _ = run_main(["--repeat", "2", "--baseline", f.name],
                               FakeRunner(slower))
            self.assertEqual(code, 1)
        finally:
            os.unlink(f.name)

    def test_repeat_fails_when_runs_disagree(self):
        seen = []

        def drifting(w, extra, r):
            seen.append(w)
            r["digest"] = str(len(seen))
            return r
        code, _ = run_main(["--workload", "islands", "--repeat", "2"],
                           FakeRunner(drifting))
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
