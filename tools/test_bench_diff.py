#!/usr/bin/env python3
"""Self-test for tools/bench_diff.py (ISSUE 5), runnable standalone
(`python3 tools/test_bench_diff.py`) or under pytest. Covers the
tolerance and work classes, gated-key disappearance, --require failure paths,
and the maintenance modes (--update-baselines, history append/print).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def run_main(argv):
    """bench_diff.main() under a fake argv; returns (exit_code, stdout)."""
    out = io.StringIO()
    old_argv = sys.argv
    sys.argv = ["bench_diff.py"] + argv
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = bench_diff.main()
            except SystemExit as e:  # argparse error paths
                code = e.code
    finally:
        sys.argv = old_argv
    return code, out.getvalue()


BASE = {
    "bench": "demo",
    "rows": [{
        "scenario": "grid", "mode": "a",
        "mean_fidelity": 0.80, "completed": 100, "delivered": 400,
        "wall_seconds": 2.0, "events_per_sec": 1e6, "note_metric": 7.0,
        "requests_per_sec": 5e4, "events": 500000,
        "p99_request_latency_s": 0.30,
        "obs": {"engine": {"events_processed": 12345}},
    }],
    "demo_gain": 0.5,
    "p50_admission_wait_s": 0.10,
}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name, doc):
        p = os.path.join(self.dir.name, name)
        with open(p, "w") as f:
            json.dump(doc, f)
        return p

    def compare(self, current, extra=()):
        base = self.path("base.json", BASE)
        cur = self.path("cur.json", current)
        return run_main([base, cur, *extra])

    def current(self, **overrides):
        doc = json.loads(json.dumps(BASE))
        doc["rows"][0].update(overrides)
        return doc

    # --- tolerance classes -------------------------------------------

    def test_identical_run_passes(self):
        code, out = self.compare(self.current())
        self.assertEqual(code, 0)
        self.assertIn("checks passed", out)

    def test_quality_drop_beyond_tolerance_fails(self):
        code, out = self.compare(self.current(mean_fidelity=0.70))
        self.assertEqual(code, 1)
        self.assertIn("mean_fidelity", out)

    def test_quality_drop_within_tolerance_passes(self):
        code, _ = self.compare(self.current(mean_fidelity=0.76))
        self.assertEqual(code, 0)

    def test_count_drop_beyond_tolerance_fails(self):
        code, out = self.compare(self.current(completed=80))
        self.assertEqual(code, 1)
        self.assertIn("completed", out)

    def test_count_gain_passes(self):
        code, _ = self.compare(self.current(completed=120, delivered=500))
        self.assertEqual(code, 0)

    def test_perf_blowup_fails(self):
        code, out = self.compare(self.current(wall_seconds=17.0))
        self.assertEqual(code, 1)
        self.assertIn("wall_seconds", out)

    def test_event_rate_collapse_fails(self):
        code, out = self.compare(self.current(events_per_sec=1e5))
        self.assertEqual(code, 1)
        self.assertIn("events_per_sec", out)

    def test_request_rate_collapse_fails(self):
        code, out = self.compare(self.current(requests_per_sec=5e3))
        self.assertEqual(code, 1)
        self.assertIn("requests_per_sec", out)

    def test_informational_key_change_is_noted_not_gated(self):
        code, _ = self.compare(self.current(note_metric=0.0))
        self.assertEqual(code, 0)

    # --- work class -------------------------------------------------

    def test_work_rise_by_one_event_fails(self):
        code, out = self.compare(self.current(events=500001))
        self.assertEqual(code, 1)
        self.assertIn("events", out)
        self.assertIn("no rise allowed", out)

    def test_work_drop_passes_with_rerecord_note(self):
        code, out = self.compare(self.current(events=250000))
        self.assertEqual(code, 0)
        self.assertIn("re-record with --update-baselines", out)

    def test_equal_work_passes_without_note(self):
        code, out = self.compare(self.current())
        self.assertEqual(code, 0)
        self.assertNotIn("re-record", out)

    def test_missing_work_key_fails(self):
        doc = self.current()
        del doc["rows"][0]["events"]
        code, out = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertIn("events: gated metric missing", out)

    # --- latency percentile class (ISSUE 6) --------------------------

    def test_latency_percentile_regression_fails(self):
        code, out = self.compare(self.current(p99_request_latency_s=0.40))
        self.assertEqual(code, 1)
        self.assertIn("p99_request_latency_s", out)

    def test_latency_percentile_within_tolerance_passes(self):
        code, _ = self.compare(self.current(p99_request_latency_s=0.34))
        self.assertEqual(code, 0)

    def test_latency_percentile_improvement_passes(self):
        code, _ = self.compare(self.current(p99_request_latency_s=0.05))
        self.assertEqual(code, 0)

    def test_top_level_latency_percentile_gated(self):
        doc = self.current()
        doc["p50_admission_wait_s"] = 0.50
        code, out = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertIn("[top-level] p50_admission_wait_s", out)

    def test_missing_top_level_latency_percentile_fails(self):
        doc = self.current()
        del doc["p50_admission_wait_s"]
        code, out = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertIn("gated metric missing", out)

    def test_nested_obs_dict_is_ignored(self):
        doc = self.current()
        doc["rows"][0]["obs"] = {"engine": {"events_processed": 999}}
        code, _ = self.compare(doc)
        self.assertEqual(code, 0)

    # --- missing keys / rows -----------------------------------------

    def test_missing_gated_key_fails(self):
        doc = self.current()
        del doc["rows"][0]["mean_fidelity"]
        code, out = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertIn("gated metric missing", out)

    def test_missing_informational_key_passes(self):
        doc = self.current()
        del doc["rows"][0]["note_metric"]
        code, out = self.compare(doc)
        self.assertEqual(code, 0)
        self.assertIn("not in current run", out)

    def test_missing_baseline_row_fails(self):
        doc = self.current(mode="renamed")
        code, out = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertIn("baseline row missing", out)

    def test_case_key_tells_rows_apart(self):
        # Two rows of one scenario differ only in "case": each must be
        # gated against its own baseline row, not the last one read.
        base = json.loads(json.dumps(BASE))
        base["rows"] = [dict(BASE["rows"][0], case="a", mean_fidelity=0.9),
                        dict(BASE["rows"][0], case="b", mean_fidelity=0.5)]
        cur = json.loads(json.dumps(base))
        cur["rows"][0]["mean_fidelity"] = 0.5
        code, out = run_main([self.path("base.json", base),
                              self.path("cur.json", cur)])
        self.assertEqual(code, 1)
        self.assertIn("case=a", out)

    # --- --require ----------------------------------------------------

    def test_require_pass_and_fail(self):
        code, _ = self.compare(self.current(),
                               extra=["--require", "demo_gain>0.4"])
        self.assertEqual(code, 0)
        code, out = self.compare(self.current(),
                                 extra=["--require", "demo_gain>0.6"])
        self.assertEqual(code, 1)
        self.assertIn("require demo_gain > 0.6", out)

    def test_require_exact_equality(self):
        # ISSUE 7: the stall-watchdog gate wants a precise counter value
        # ("stalled_intervals==0"), not just a bound.
        doc = self.current()
        doc["stalled_intervals"] = 0
        code, _ = self.compare(doc,
                               extra=["--require", "stalled_intervals==0"])
        self.assertEqual(code, 0)
        doc["stalled_intervals"] = 2
        code, out = self.compare(doc,
                                 extra=["--require", "stalled_intervals==0"])
        self.assertEqual(code, 1)
        self.assertIn("require stalled_intervals == 0", out)

    def test_require_less_or_equal(self):
        doc = self.current()
        doc["peak_backlog"] = 4
        code, _ = self.compare(doc, extra=["--require", "peak_backlog<=4"])
        self.assertEqual(code, 0)
        code, out = self.compare(doc, extra=["--require", "peak_backlog<=3"])
        self.assertEqual(code, 1)
        self.assertIn("require peak_backlog <= 3", out)

    def test_require_missing_or_non_numeric_scalar_fails(self):
        code, out = self.compare(self.current(),
                                 extra=["--require", "absent_gain>0"])
        self.assertEqual(code, 1)
        self.assertIn("got None", out)
        doc = self.current()
        doc["demo_gain"] = "high"
        code, _ = self.compare(doc, extra=["--require", "demo_gain>0"])
        self.assertEqual(code, 1)

    def test_require_rejects_malformed_spec(self):
        code, _ = self.compare(self.current(), extra=["--require", "nonsense"])
        self.assertEqual(code, 2)  # argparse error

    # --- maintenance modes -------------------------------------------

    def test_update_baselines_rewrites_by_bench_name(self):
        baselines = os.path.join(self.dir.name, "baselines")
        os.makedirs(baselines)
        cur = self.path("fresh.json", self.current(completed=123))
        code, out = run_main(["--update-baselines", cur,
                              "--baselines-dir", baselines])
        self.assertEqual(code, 0)
        target = os.path.join(baselines, "BENCH_demo.json")
        self.assertIn("updated", out)
        with open(target) as f:
            self.assertEqual(json.load(f)["rows"][0]["completed"], 123)

    def test_update_baselines_requires_bench_name(self):
        doc = self.current()
        del doc["bench"]
        cur = self.path("anon.json", doc)
        code, out = run_main(["--update-baselines", cur,
                              "--baselines-dir", self.dir.name])
        self.assertEqual(code, 1)
        self.assertIn("no \"bench\" name", out)

    def test_history_append_and_print_deltas(self):
        hist = os.path.join(self.dir.name, "bench_history.jsonl")
        first = self.path("first.json", self.current())
        doc = self.current()
        doc["demo_gain"] = 0.75
        second = self.path("second.json", doc)
        self.assertEqual(run_main(["--append-history", hist, first])[0], 0)
        self.assertEqual(run_main(["--append-history", hist, second])[0], 0)
        with open(hist) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        self.assertEqual(len(lines), 2)
        self.assertEqual(lines[0]["bench"], "demo")
        self.assertEqual(lines[1]["scalars"]["demo_gain"], 0.75)

        code, out = run_main(["--history", hist, "--last", "2"])
        self.assertEqual(code, 0)
        self.assertIn("demo (2 runs", out)
        self.assertIn("(+0.25)", out)  # delta vs the previous run

    def test_append_history_is_append_only_even_with_two_files(self):
        # Regression: two positional files used to flip silently into
        # compare mode; --append-history must always mean append.
        hist = os.path.join(self.dir.name, "bench_history.jsonl")
        a = self.path("a.json", self.current())
        doc = self.current()
        doc["bench"] = "other"
        b = self.path("b.json", doc)
        code, out = run_main(["--append-history", hist, a, b])
        self.assertEqual(code, 0)
        self.assertNotIn("checks passed", out)  # no compare ran
        with open(hist) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        self.assertEqual([l["bench"] for l in lines], ["demo", "other"])

    def test_append_history_skips_missing_files(self):
        # A crashed bench must not lose the surviving benches' data
        # points (CI appends after gate failures on purpose).
        hist = os.path.join(self.dir.name, "bench_history.jsonl")
        a = self.path("a.json", self.current())
        missing = os.path.join(self.dir.name, "never_written.json")
        code, out = run_main(["--append-history", hist, missing, a])
        self.assertEqual(code, 0)
        self.assertIn("skipping", out)
        with open(hist) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        self.assertEqual(len(lines), 1)
        self.assertEqual(lines[0]["bench"], "demo")

    def test_compare_needs_exactly_two_files(self):
        code, _ = run_main([self.path("only.json", self.current())])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
