#!/usr/bin/env python3
"""Structure + consistency validator for the two JSONL streams an
obs::Session writes: obs::Monitor interval telemetry (`monitor`) and
obs::NetState per-edge network state (`netstate`). Run in CI against
the `--monitor` / `--netstate` output of bench_grid_routing and
bench_admission, so a refactor of src/obs/ or of the accounting hooks
cannot silently break the invariants the samplers promise.

Records are grouped by their optional "run" label (several runs may
share one file); each group must be one complete stream. Checks per
group, in order:

  schema    every line is a JSON object carrying its kind's fields
            (below); exactly one "final": true record exists and it is
            the group's last line.
  timeline  interval indices "i" are contiguous from 0; "t" is strictly
            increasing with dt > 0 and t[k] - dt[k] == t[k-1] (records
            tile sim time with no gap or overlap); the final record's
            "t" equals the last interval's and its "intervals" equals
            the record count.

monitor streams:

  schema    interval records carry numeric i/t/dt/deliveries/events and
            a boolean "stalled"; the final record carries numeric
            t/intervals/stalled_intervals/peak_backlog/deliveries/events.
  progress  when records carry a "progress" field it is numeric and
            non-decreasing across the run; "eta_s", when present, is
            null or a nonnegative number.
  totals    the final record's deliveries/events equal the sum of the
            per-interval deltas, its "stalled_intervals" equals the
            number of records flagged "stalled": true, and its
            "peak_backlog" equals the max sampled "backlog" (0 when no
            record carries one).

netstate streams:

  schema    interval records carry numeric i/t/dt/leases/blocked/
            attempts/deliveries/util_mean/util_max plus a "hot" edge
            list; the final record carries the per-edge table, totals,
            and sketch sections.
  ranges    every utilization — interval util_mean/util_max, hot-list
            entries, final per-edge table, and the run-wide
            max_utilization — lies in [0, 1]; util_mean <= util_max;
            hot lists are sorted by utilization, descending.
  totals    per-interval delta sums reconcile with the final record:
            leases == totals.leases == per-edge sum, attempts ==
            totals.attempt_pairs, blocked and (per-hop) deliveries
            match the per-edge table, per-node swaps sum to
            totals.swaps, and per-hop deliveries cover at least
            totals.deliveries end-to-end pairs.
  sketch    "exact": true implies zero evictions; top counts are
            non-increasing with 0 <= error <= count.
  collector when the final record carries a "collector" section, its
            request-level counters equal the totals' (pairs delivered,
            requests blocked, admission waits; wait seconds within
            float tolerance).

Exit 0 and a one-line summary on success; exit 1 with every violation
on failure. Usage:

    stream_check.py monitor|netstate FILE.jsonl
"""

import functools
import json
import sys

# Utilizations are exact by construction up to the double round-trip of
# the cumulative busy-seconds subtraction; allow that much slack.
UTIL_EPS = 1e-9
WAIT_EPS = 1e-6


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def require_numbers(rec, keys, what, err):
    for key in keys:
        if not is_number(rec.get(key)):
            err(f"{what} missing numeric {key!r}")


# --- monitor -----------------------------------------------------------

def monitor_interval_schema(rec, err):
    require_numbers(rec, ("i", "t", "dt", "deliveries", "events"),
                    "interval record", err)
    if not isinstance(rec.get("stalled"), bool):
        err("interval record missing boolean \"stalled\"")


def monitor_final_schema(rec, err):
    require_numbers(rec, ("t", "intervals", "stalled_intervals",
                          "peak_backlog", "deliveries", "events"),
                    "final record", err)


def check_monitor(intervals, final_line, final, err):
    # progress / eta
    prev_progress = None
    for line_no, rec in intervals:
        if "progress" in rec:
            if not is_number(rec["progress"]):
                err(line_no, "non-numeric \"progress\"")
            elif prev_progress is not None and rec["progress"] < prev_progress:
                err(line_no, f"progress {rec['progress']} decreased "
                             f"(previous {prev_progress})")
            else:
                prev_progress = rec["progress"]
        if "eta_s" in rec:
            eta = rec["eta_s"]
            if eta is not None and (not is_number(eta) or eta < 0):
                err(line_no, f"eta_s {eta} is not null-or-nonnegative")

    # totals vs the final summary
    for key in ("deliveries", "events"):
        total = sum(rec[key] for _, rec in intervals)
        if final[key] != total:
            err(final_line, f"final {key} {final[key]} != per-interval sum "
                            f"{total}")
    stalled = sum(1 for _, rec in intervals if rec["stalled"])
    if final["stalled_intervals"] != stalled:
        err(final_line, f"final stalled_intervals "
                        f"{final['stalled_intervals']} != flagged record "
                        f"count {stalled}")
    peak = max((rec.get("backlog", 0) for _, rec in intervals), default=0)
    if final["peak_backlog"] != peak:
        err(final_line, f"final peak_backlog {final['peak_backlog']} != max "
                        f"sampled backlog {peak}")


# --- netstate ----------------------------------------------------------

HOT_NUMBERS = ("edge", "util", "leases", "blocked", "attempts",
               "deliveries")
EDGE_NUMBERS = ("edge", "util", "busy_s", "leases", "blocked", "attempts",
                "deliveries", "admission_waits", "admission_wait_s",
                "fidelity_mean")
TOTAL_NUMBERS = ("leases", "attempt_pairs", "swaps", "blocked_requests",
                 "deliveries", "admission_waits", "admission_wait_s")


def netstate_interval_schema(rec, err):
    require_numbers(rec, ("i", "t", "dt", "leases", "blocked", "attempts",
                          "deliveries", "util_mean", "util_max"),
                    "interval record", err)
    if not isinstance(rec.get("hot"), list):
        err("interval record missing \"hot\" list")
        return
    for h in rec["hot"]:
        missing = [k for k in HOT_NUMBERS if not is_number(h.get(k))]
        if missing:
            err(f"hot entry missing numeric {missing[0]!r}")


def netstate_final_schema(rec, err):
    require_numbers(rec, ("t", "intervals", "max_utilization"),
                    "final record", err)
    for key in ("edges", "nodes", "hot_edges"):
        if not isinstance(rec.get(key), list):
            err(f"final record missing list {key!r}")
    for key in ("sketch", "totals"):
        if not isinstance(rec.get(key), dict):
            err(f"final record missing object {key!r}")
    if isinstance(rec.get("totals"), dict):
        require_numbers(rec["totals"], TOTAL_NUMBERS, "totals", err)
    for e in rec.get("edges") or []:
        missing = [k for k in EDGE_NUMBERS if not is_number(e.get(k))]
        if missing:
            err(f"edge entry missing numeric {missing[0]!r}")


def check_netstate(intervals, final_line, final, err):
    def check_util(line_no, what, v):
        if not -UTIL_EPS <= v <= 1.0 + UTIL_EPS:
            err(line_no, f"{what} {v} outside [0, 1]")

    # ranges
    for line_no, rec in intervals:
        check_util(line_no, "util_mean", rec["util_mean"])
        check_util(line_no, "util_max", rec["util_max"])
        if rec["util_mean"] > rec["util_max"] + UTIL_EPS:
            err(line_no, f"util_mean {rec['util_mean']} exceeds util_max "
                         f"{rec['util_max']}")
        prev_util = None
        for h in rec["hot"]:
            check_util(line_no, f"hot edge {h['edge']} util", h["util"])
            if prev_util is not None and h["util"] > prev_util + UTIL_EPS:
                err(line_no, "hot list not sorted by util descending")
                break
            prev_util = h["util"]
    for e in final["edges"]:
        check_util(final_line, f"final edge {e['edge']} util", e["util"])
    check_util(final_line, "max_utilization", final["max_utilization"])
    peak = max((rec["util_max"] for _, rec in intervals), default=0.0)
    if final["max_utilization"] + UTIL_EPS < peak:
        err(final_line, f"max_utilization {final['max_utilization']} "
                        f"below interval peak {peak}")

    # totals vs the final summary
    totals = final["totals"]
    edges = final["edges"]
    for key, total_key in (("leases", "leases"),
                           ("attempts", "attempt_pairs")):
        delta_sum = sum(rec[key] for _, rec in intervals)
        if delta_sum != totals[total_key]:
            err(final_line, f"per-interval {key} sum {delta_sum} != "
                            f"totals.{total_key} {totals[total_key]}")
    for key in ("leases", "blocked", "attempts", "deliveries"):
        delta_sum = sum(rec[key] for _, rec in intervals)
        edge_sum = sum(e[key] for e in edges)
        if delta_sum != edge_sum:
            err(final_line, f"per-interval {key} sum {delta_sum} != "
                            f"per-edge sum {edge_sum}")
    node_swaps = sum(n["swaps"] for n in final["nodes"])
    if node_swaps != totals["swaps"]:
        err(final_line, f"per-node swaps sum {node_swaps} != totals.swaps "
                        f"{totals['swaps']}")
    # Per-hop deliveries cover every end-to-end pair at least once.
    hop_deliveries = sum(e["deliveries"] for e in edges)
    if hop_deliveries < totals["deliveries"]:
        err(final_line, f"per-hop deliveries {hop_deliveries} < delivered "
                        f"pairs {totals['deliveries']}")
    edge_waits = sum(e["admission_waits"] for e in edges)
    if edge_waits < totals["admission_waits"]:
        err(final_line, f"per-edge admission_waits {edge_waits} < "
                        f"totals.admission_waits "
                        f"{totals['admission_waits']}")

    # sketch
    sketch = final["sketch"]
    if sketch.get("exact") is True and sketch.get("evictions", 0) != 0:
        err(final_line, f"sketch claims exact with "
                        f"{sketch['evictions']} evictions")
    prev_count = None
    for h in final["hot_edges"]:
        if not (0 <= h.get("error", 0) <= h.get("count", 0)):
            err(final_line, f"hot edge {h.get('edge')} error "
                            f"{h.get('error')} outside [0, count]")
        if prev_count is not None and h["count"] > prev_count:
            err(final_line, "hot_edges counts not non-increasing")
            break
        prev_count = h["count"]

    # collector reconciliation
    coll = final.get("collector")
    if isinstance(coll, dict):
        for total_key, coll_key in (
                ("deliveries", "pairs_delivered"),
                ("blocked_requests", "requests_blocked"),
                ("admission_waits", "admission_waits")):
            if totals[total_key] != coll.get(coll_key):
                err(final_line, f"totals.{total_key} {totals[total_key]} "
                                f"!= collector.{coll_key} "
                                f"{coll.get(coll_key)}")
        dw = abs(totals["admission_wait_s"]
                 - coll.get("admission_wait_s", 0.0))
        if dw > WAIT_EPS * max(1.0, abs(totals["admission_wait_s"])):
            err(final_line, f"totals.admission_wait_s "
                            f"{totals['admission_wait_s']} != "
                            f"collector.admission_wait_s "
                            f"{coll.get('admission_wait_s')}")


# --- shared ------------------------------------------------------------

KINDS = {
    "monitor": (monitor_interval_schema, monitor_final_schema,
                check_monitor),
    "netstate": (netstate_interval_schema, netstate_final_schema,
                 check_netstate),
}


def check_timeline(intervals, final_line, final, err):
    prev_t = None
    for k, (line_no, rec) in enumerate(intervals):
        if rec["i"] != k:
            err(line_no, f"interval index {rec['i']} (expected {k})")
        if rec["dt"] <= 0:
            err(line_no, f"non-positive dt {rec['dt']}")
        if prev_t is not None:
            if rec["t"] <= prev_t:
                err(line_no, f"t {rec['t']} not increasing (previous "
                             f"{prev_t})")
            if rec["t"] - rec["dt"] != prev_t:
                err(line_no, f"t - dt = {rec['t'] - rec['dt']} leaves a "
                             f"gap/overlap against previous t {prev_t}")
        prev_t = rec["t"]
    if intervals and final["t"] != intervals[-1][1]["t"]:
        err(final_line, f"final t {final['t']} != last interval t "
                        f"{intervals[-1][1]['t']}")
    if final["intervals"] != len(intervals):
        err(final_line, f"final intervals {final['intervals']} != record "
                        f"count {len(intervals)}")


def check_group(kind, run, records):
    """Validate one run label's record list ((line_no, record) pairs) as
    a `kind` stream; returns a list of violation strings (empty =
    valid)."""
    interval_schema, final_schema, check_kind = KINDS[kind]
    errors = []
    label = f"run {run!r}" if run else "unlabelled run"

    def err(line_no, message):
        errors.append(f"{label}, line {line_no}: {message}")

    intervals = []
    finals = []
    for line_no, rec in records:
        at_line = functools.partial(err, line_no)
        if rec.get("final") is True:
            final_schema(rec, at_line)
            finals.append((line_no, rec))
        else:
            interval_schema(rec, at_line)
            intervals.append((line_no, rec))
    if len(finals) != 1:
        errors.append(f"{label}: expected exactly one \"final\" record, "
                      f"got {len(finals)}")
    elif records[-1][1] is not finals[0][1]:
        err(finals[0][0], "final record is not the group's last line")
    if errors:
        return errors  # the arithmetic below assumes schema holds

    final_line, final = finals[0]
    check_timeline(intervals, final_line, final, err)
    check_kind(intervals, final_line, final, err)
    return errors


def check_file(path, kind):
    """Returns (errors, num_records)."""
    errors = []
    groups = {}  # run label -> [(line_no, record)], insertion-ordered
    num_records = 0
    try:
        with open(path) as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as e:
                    errors.append(f"line {line_no}: not JSON: {e}")
                    continue
                if not isinstance(rec, dict):
                    errors.append(f"line {line_no}: not a JSON object")
                    continue
                num_records += 1
                groups.setdefault(rec.get("run"), []).append((line_no, rec))
    except OSError as e:
        return [f"cannot read {path}: {e}"], 0
    if not errors and not groups:
        errors.append("no records")
    for run, records in groups.items():
        errors.extend(check_group(kind, run, records))
    return errors, num_records


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in KINDS:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    kind, path = sys.argv[1], sys.argv[2]
    errors, num_records = check_file(path, kind)
    for e in errors:
        print(f"FAIL  {e}")
    if errors:
        print(f"{path}: {len(errors)} violations in {num_records} records")
        return 1
    print(f"{path}: ok ({num_records} {kind} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
