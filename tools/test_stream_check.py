#!/usr/bin/env python3
"""Self-test for tools/stream_check.py, runnable standalone
(`python3 tools/test_stream_check.py`) or under pytest. Covers every
check of both stream kinds — monitor (schema, timeline, progress/eta,
totals) and netstate (schema, ranges, timeline, totals, sketch,
collector) — plus run-label grouping, each with a passing and a
violating stream.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stream_check  # noqa: E402


class StreamCheckCase(unittest.TestCase):
    KIND = None  # set by subclasses

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def check(self, records, raw_lines=()):
        path = os.path.join(self.dir.name, f"{self.KIND}.jsonl")
        with open(path, "w") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
            for line in raw_lines:
                f.write(line + "\n")
        return stream_check.check_file(path, self.KIND)

    def assert_fails(self, records, fragment, raw_lines=()):
        errors, _ = self.check(records, raw_lines)
        self.assertTrue(errors, "expected violations, got none")
        self.assertTrue(any(fragment in e for e in errors),
                        f"{fragment!r} not in {errors}")


# --- monitor streams -----------------------------------------------------

def monitor_interval(i, t, dt, deliveries=1, events=100, run=None,
                     stalled=False, **extra):
    rec = {"i": i, "t": t, "dt": dt, "deliveries": deliveries,
           "events": events, "stalled": stalled}
    if run is not None:
        rec["run"] = run
    rec.update(extra)
    return rec


def monitor_final(t, intervals, deliveries, events, stalled=0, peak=0,
                  run=None, **extra):
    rec = {"final": True, "t": t, "intervals": intervals,
           "stalled_intervals": stalled, "peak_backlog": peak,
           "deliveries": deliveries, "events": events}
    if run is not None:
        rec["run"] = run
    rec.update(extra)
    return rec


def monitor_stream(run=None):
    return [
        monitor_interval(0, 100, 100, deliveries=2, events=50, run=run),
        monitor_interval(1, 200, 100, deliveries=3, events=60, run=run),
        monitor_interval(2, 260, 60, deliveries=1, events=10, run=run),
        monitor_final(260, 3, 6, 120, run=run),
    ]


class MonitorCheckTest(StreamCheckCase):
    KIND = "monitor"

    # --- valid streams -----------------------------------------------

    def test_valid_single_group(self):
        errors, count = self.check(monitor_stream())
        self.assertEqual(errors, [])
        self.assertEqual(count, 4)

    def test_valid_multiple_run_labels_interleave_independently(self):
        # Concatenated runs in one file: each label validates alone.
        errors, count = self.check(monitor_stream("grid")
                                   + monitor_stream("dragonfly"))
        self.assertEqual(errors, [])
        self.assertEqual(count, 8)

    def test_valid_stalled_accounting(self):
        records = [
            monitor_interval(0, 100, 100, deliveries=0, run="g",
                             stalled=True, backlog=2),
            monitor_interval(1, 200, 100, deliveries=4, run="g", backlog=1),
            monitor_final(200, 2, 4, 200, stalled=1, peak=2, run="g"),
        ]
        errors, _ = self.check(records)
        self.assertEqual(errors, [])

    # --- schema ------------------------------------------------------

    def test_non_json_line_fails(self):
        self.assert_fails(monitor_stream(), "not JSON", raw_lines=["{oops"])

    def test_missing_interval_field_fails(self):
        records = monitor_stream()
        del records[1]["dt"]
        self.assert_fails(records, "missing numeric 'dt'")

    def test_missing_stalled_flag_fails(self):
        records = monitor_stream()
        del records[0]["stalled"]
        self.assert_fails(records, "missing boolean \"stalled\"")

    def test_missing_final_record_fails(self):
        self.assert_fails(monitor_stream()[:-1], "exactly one \"final\"")

    def test_duplicate_final_record_fails(self):
        records = monitor_stream() + [monitor_final(260, 3, 6, 120)]
        self.assert_fails(records, "exactly one \"final\"")

    def test_final_not_last_fails(self):
        records = monitor_stream()
        records[2], records[3] = records[3], records[2]
        self.assert_fails(records, "not the group's last line")

    def test_empty_file_fails(self):
        self.assert_fails([], "no records")

    # --- timeline ----------------------------------------------------

    def test_non_contiguous_index_fails(self):
        records = monitor_stream()
        records[2]["i"] = 5
        self.assert_fails(records, "interval index 5 (expected 2)")

    def test_non_increasing_t_fails(self):
        records = monitor_stream()
        records[2]["t"] = 150
        self.assert_fails(records, "not increasing")

    def test_gap_between_records_fails(self):
        records = monitor_stream()
        records[2]["t"] = 400  # dt 60 leaves (200, 340) uncovered
        self.assert_fails(records, "gap/overlap")

    def test_final_t_mismatch_fails(self):
        records = monitor_stream()
        records[-1]["t"] = 300
        self.assert_fails(records, "final t 300 != last interval t 260")

    # --- progress / eta ----------------------------------------------

    def test_valid_progress_and_eta(self):
        records = monitor_stream()
        records[0].update(progress=0.25, eta_s=None)
        records[1].update(progress=0.5, eta_s=10.0)
        records[2].update(progress=1.0, eta_s=0.0)
        errors, _ = self.check(records)
        self.assertEqual(errors, [])

    def test_progress_decrease_fails(self):
        records = monitor_stream()
        records[0]["progress"] = 0.5
        records[1]["progress"] = 0.25
        self.assert_fails(records, "progress 0.25 decreased")

    def test_non_numeric_progress_fails(self):
        records = monitor_stream()
        records[0]["progress"] = "half"
        self.assert_fails(records, "non-numeric \"progress\"")

    def test_progress_sparse_records_still_checked(self):
        # A record without the field does not reset the baseline.
        records = monitor_stream()
        records[0]["progress"] = 0.75
        records[2]["progress"] = 0.5
        self.assert_fails(records, "progress 0.5 decreased")

    def test_negative_eta_fails(self):
        records = monitor_stream()
        records[1]["eta_s"] = -3.5
        self.assert_fails(records, "eta_s -3.5 is not null-or-nonnegative")

    def test_non_numeric_eta_fails(self):
        records = monitor_stream()
        records[1]["eta_s"] = "soon"
        self.assert_fails(records, "not null-or-nonnegative")

    # --- totals ------------------------------------------------------

    def test_delta_sum_mismatch_fails(self):
        records = monitor_stream()
        records[-1]["deliveries"] = 7
        self.assert_fails(records, "final deliveries 7 != per-interval "
                                   "sum 6")

    def test_interval_count_mismatch_fails(self):
        records = monitor_stream()
        records[-1]["intervals"] = 2
        self.assert_fails(records, "record count 3")

    def test_stalled_count_mismatch_fails(self):
        records = monitor_stream()
        records[0]["stalled"] = True
        self.assert_fails(records, "flagged record count 1")

    def test_peak_backlog_mismatch_fails(self):
        records = monitor_stream()
        records[1]["backlog"] = 9
        self.assert_fails(records, "max sampled backlog 9")

    def test_violation_names_its_run_label(self):
        records = monitor_stream("grid")
        records[-1]["events"] = 1
        errors, _ = self.check(records)
        self.assertTrue(any("run 'grid'" in e for e in errors), errors)


# --- netstate streams ----------------------------------------------------

def hot(edge, util, leases=0, blocked=0, attempts=0, deliveries=0):
    return {"edge": edge, "util": util, "leases": leases,
            "blocked": blocked, "attempts": attempts,
            "deliveries": deliveries}


def netstate_interval(i, t, dt, leases=0, blocked=0, attempts=0,
                      deliveries=0, util_mean=0.0, util_max=0.0,
                      hot_list=(), run=None):
    rec = {"i": i, "t": t, "dt": dt, "leases": leases, "blocked": blocked,
           "attempts": attempts, "deliveries": deliveries,
           "util_mean": util_mean, "util_max": util_max,
           "hot": list(hot_list)}
    if run is not None:
        rec["run"] = run
    return rec


def edge_entry(edge, util=0.0, busy_s=0.0, leases=0, blocked=0, attempts=0,
               deliveries=0, admission_waits=0, admission_wait_s=0.0,
               fidelity_mean=0.0):
    return {"edge": edge, "util": util, "busy_s": busy_s, "leases": leases,
            "blocked": blocked, "attempts": attempts,
            "deliveries": deliveries, "admission_waits": admission_waits,
            "admission_wait_s": admission_wait_s,
            "fidelity_mean": fidelity_mean}


def netstate_stream(run=None):
    """Two edges, two intervals: edge 0 carries one 2-pair request end
    to end (1 lease, 2 attempts, 2 per-hop deliveries = 2 pairs over a
    1-hop route), edge 1 sees one blocked-arrival footprint."""
    records = [
        netstate_interval(0, 100, 100, leases=1, attempts=2, util_mean=0.25,
                          util_max=0.5,
                          hot_list=[hot(0, 0.5, leases=1, attempts=2)],
                          run=run),
        netstate_interval(1, 200, 100, blocked=1, deliveries=2,
                          util_mean=0.5, util_max=1.0,
                          hot_list=[hot(0, 1.0, deliveries=2),
                                    hot(1, 0.0, blocked=1)],
                          run=run),
    ]
    final = {
        "final": True, "t": 200, "intervals": 2,
        "edges": [
            edge_entry(0, util=0.75, busy_s=0.15, leases=1, attempts=2,
                       deliveries=2, admission_waits=1,
                       admission_wait_s=0.01, fidelity_mean=0.8),
            edge_entry(1, blocked=1),
        ],
        "nodes": [{"node": 0, "swaps": 3, "terminals": 2}],
        "hot_edges": [{"edge": 0, "count": 5, "error": 0},
                      {"edge": 1, "count": 1, "error": 0}],
        "sketch": {"capacity": 64, "total_weight": 6, "evictions": 0,
                   "exact": True},
        "totals": {"leases": 1, "attempt_pairs": 2, "swaps": 3,
                   "blocked_requests": 1, "deliveries": 2,
                   "admission_waits": 1, "admission_wait_s": 0.01},
        "collector": {"pairs_delivered": 2, "requests_blocked": 1,
                      "admission_waits": 1, "admission_wait_s": 0.01},
        "max_utilization": 1.0,
    }
    if run is not None:
        final["run"] = run
    return records + [final]


class NetstateCheckTest(StreamCheckCase):
    KIND = "netstate"

    # --- valid streams -----------------------------------------------

    def test_valid_single_group(self):
        errors, count = self.check(netstate_stream())
        self.assertEqual(errors, [])
        self.assertEqual(count, 3)

    def test_valid_multiple_run_labels_validate_independently(self):
        errors, count = self.check(netstate_stream("grid")
                                   + netstate_stream("dragonfly"))
        self.assertEqual(errors, [])
        self.assertEqual(count, 6)

    # --- schema ------------------------------------------------------

    def test_non_json_line_fails(self):
        self.assert_fails(netstate_stream(), "not JSON", raw_lines=["{oops"])

    def test_missing_interval_field_fails(self):
        records = copy.deepcopy(netstate_stream())
        del records[1]["util_max"]
        self.assert_fails(records, "missing numeric 'util_max'")

    def test_missing_hot_list_fails(self):
        records = copy.deepcopy(netstate_stream())
        del records[0]["hot"]
        self.assert_fails(records, "missing \"hot\" list")

    def test_missing_final_record_fails(self):
        self.assert_fails(netstate_stream()[:-1], "exactly one \"final\"")

    def test_final_not_last_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[1], records[2] = records[2], records[1]
        self.assert_fails(records, "not the group's last line")

    def test_missing_totals_field_fails(self):
        records = copy.deepcopy(netstate_stream())
        del records[-1]["totals"]["swaps"]
        self.assert_fails(records, "totals missing numeric 'swaps'")

    def test_empty_file_fails(self):
        self.assert_fails([], "no records")

    # --- ranges ------------------------------------------------------

    def test_util_above_one_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[1]["util_max"] = 1.5
        records[-1]["max_utilization"] = 1.5
        self.assert_fails(records, "util_max 1.5 outside [0, 1]")

    def test_negative_edge_util_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["edges"][0]["util"] = -0.2
        self.assert_fails(records, "outside [0, 1]")

    def test_util_mean_above_max_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[0]["util_mean"] = 0.9  # util_max stays 0.5
        self.assert_fails(records, "exceeds util_max")

    def test_unsorted_hot_list_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[1]["hot"].reverse()
        self.assert_fails(records, "not sorted by util")

    def test_max_utilization_below_interval_peak_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["max_utilization"] = 0.25
        self.assert_fails(records, "below interval peak")

    # --- timeline ----------------------------------------------------

    def test_non_contiguous_index_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[1]["i"] = 4
        self.assert_fails(records, "interval index 4 (expected 1)")

    def test_gap_between_records_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[1]["t"] = 400  # dt 100 leaves (100, 300) uncovered
        records[-1]["t"] = 400
        self.assert_fails(records, "gap/overlap")

    def test_final_t_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["t"] = 300
        self.assert_fails(records, "final t 300 != last interval t 200")

    def test_interval_count_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["intervals"] = 5
        self.assert_fails(records, "record count 2")

    # --- totals ------------------------------------------------------

    def test_lease_delta_sum_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["totals"]["leases"] = 9
        self.assert_fails(records, "totals.leases 9")

    def test_attempt_delta_sum_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[0]["attempts"] = 5
        self.assert_fails(records, "totals.attempt_pairs")

    def test_per_edge_blocked_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["edges"][1]["blocked"] = 3
        self.assert_fails(records, "per-edge sum 3")

    def test_node_swaps_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["nodes"][0]["swaps"] = 7
        self.assert_fails(records, "per-node swaps sum 7")

    def test_hop_deliveries_below_pairs_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["totals"]["deliveries"] = 9
        records[-1]["collector"]["pairs_delivered"] = 9
        self.assert_fails(records, "< delivered pairs 9")

    # --- sketch ------------------------------------------------------

    def test_exact_sketch_with_evictions_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["sketch"]["evictions"] = 2
        self.assert_fails(records, "claims exact with 2 evictions")

    def test_hot_edges_counts_not_sorted_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["hot_edges"].reverse()
        self.assert_fails(records, "not non-increasing")

    def test_error_above_count_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["hot_edges"][0]["error"] = 99
        self.assert_fails(records, "outside [0, count]")

    # --- collector ---------------------------------------------------

    def test_collector_pairs_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["collector"]["pairs_delivered"] = 5
        self.assert_fails(records, "collector.pairs_delivered 5")

    def test_collector_wait_seconds_mismatch_fails(self):
        records = copy.deepcopy(netstate_stream())
        records[-1]["collector"]["admission_wait_s"] = 0.5
        self.assert_fails(records, "collector.admission_wait_s")

    def test_collector_section_optional(self):
        records = copy.deepcopy(netstate_stream())
        del records[-1]["collector"]
        errors, _ = self.check(records)
        self.assertEqual(errors, [])

    def test_violation_names_its_run_label(self):
        records = copy.deepcopy(netstate_stream("grid"))
        records[-1]["totals"]["swaps"] = 99
        errors, _ = self.check(records)
        self.assertTrue(any("run 'grid'" in e for e in errors), errors)


if __name__ == "__main__":
    unittest.main(verbosity=2)
