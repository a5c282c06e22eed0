#!/usr/bin/env python3
"""Tolerance-based bench-regression gate (ISSUE 4, extended in ISSUE 5).

Compares a freshly produced BENCH_*.json against its checked-in
baseline (bench/baselines/) and exits non-zero on a regression beyond
tolerance, so CI's bench-smoke job *fails* instead of merely uploading
artifacts.

Rows are matched by their identity keys (whichever of bench / hops /
backend / scenario / case / topology / cost / mode / reroute_budget
both sides carry; bench_paper tells a scenario's rows apart by "case"). Three classes of values are compared, everything else is
informational:

  quality   keys containing "fidelity" or "completion" (except *_gain):
            deterministic per seed but float-sensitive across
            compilers, so lower-than-baseline beyond --quality-tol
            (absolute) fails.
  counts    completed / delivered / pairs / issued / swaps: lower than
            baseline by more than --count-tol (relative) fails.
  perf      wall_seconds higher, or events_per_sec lower, than baseline
            by more than the --perf-tol factor fails. CI machines vary
            wildly, so this is a catastrophic-regression backstop, not
            a microbenchmark.
  latency   p50_/p90_/p99_ percentile keys containing "latency" or
            "wait" (ISSUE 6 histogram scalars): deterministic per seed
            like quality keys, so *higher*-than-baseline beyond
            --quality-tol (absolute, in seconds) fails. Gated both in
            rows and among top-level summary scalars.

Top-level summary scalars (e.g. hetero_fidelity_gain,
adaptive_completion_gain) can be asserted directly:

    --require adaptive_completion_gain>0 --require hetero_fidelity_gain>0.05

Comparators: > >= < <= == . The exact ones gate counters that must hit
a precise value, e.g. the ISSUE 7 stall watchdog on a clean run:

    --require "stalled_intervals==0"

Besides the compare mode, three maintenance modes (ISSUE 5):

    # Rewrite bench/baselines/ from freshly produced JSON (previously an
    # undocumented manual copy). The target name comes from each file's
    # "bench" field.
    bench_diff.py --update-baselines CURRENT.json... [--baselines-dir DIR]

    # Append each CURRENT's top-level summary scalars to a JSONL
    # trajectory (one line per run; CI keeps it as a per-branch cache +
    # artifact). Missing files are noted and skipped so one crashed
    # bench cannot lose the others' data points.
    bench_diff.py --append-history FILE CURRENT.json...

    # Print the last N per-bench scalar deltas of such a trajectory.
    bench_diff.py --history FILE [--last N]

Usage:
    bench_diff.py BASELINE.json CURRENT.json [options]
"""

import argparse
import json
import math
import os
import sys
import time

IDENTITY_KEYS = ("bench", "hops", "backend", "scenario", "case",
                 "topology", "cost", "mode", "reroute_budget")
COUNT_KEYS = ("completed", "delivered", "pairs_delivered", "issued",
              "swaps")
PERF_HIGHER_IS_WORSE = ("wall_seconds",)
PERF_LOWER_IS_WORSE = ("events_per_sec", "requests_per_sec")


def is_quality_key(key):
    if key.endswith("_gain"):
        return False
    return "fidelity" in key or "completion" in key


def is_latency_percentile_key(key):
    """Streaming-histogram percentile scalars (p50_request_latency_s,
    p99_admission_wait_s, ...): deterministic per seed, higher is worse."""
    if not key.startswith(("p50_", "p90_", "p99_")):
        return False
    return "latency" in key or "wait" in key


def row_identity(row):
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def fmt_identity(identity):
    return " ".join(f"{k}={v}" for k, v in identity) or "<unkeyed>"


class Gate:
    def __init__(self, args):
        self.args = args
        self.failures = []
        self.checks = 0

    def check(self, ok, message):
        self.checks += 1
        if not ok:
            self.failures.append(message)
            print(f"FAIL  {message}")
        elif self.args.verbose:
            print(f"ok    {message}")

    def compare_row(self, identity, base, cur):
        where = fmt_identity(identity)
        for key, bval in base.items():
            if not isinstance(bval, (int, float)) or isinstance(bval, bool):
                continue
            gated = (is_quality_key(key) or is_latency_percentile_key(key)
                     or key in COUNT_KEYS
                     or key in PERF_HIGHER_IS_WORSE
                     or key in PERF_LOWER_IS_WORSE)
            cval = cur.get(key)
            if not isinstance(cval, (int, float)) or isinstance(cval, bool):
                # A gated metric must not vanish quietly — a renamed or
                # dropped key would otherwise pass the gate vacuously.
                if gated:
                    self.check(False,
                               f"[{where}] {key}: gated metric missing "
                               f"from current run (baseline {bval:.6g})")
                else:
                    print(f"note  [{where}] {key}: not in current run")
                continue
            if is_quality_key(key):
                self.check(
                    cval >= bval - self.args.quality_tol,
                    f"[{where}] {key}: {cval:.6g} vs baseline {bval:.6g} "
                    f"(quality tolerance {self.args.quality_tol})")
            elif is_latency_percentile_key(key):
                self.check(
                    cval <= bval + self.args.quality_tol,
                    f"[{where}] {key}: {cval:.6g} vs baseline {bval:.6g} "
                    f"(latency tolerance {self.args.quality_tol})")
            elif key in COUNT_KEYS:
                floor = bval * (1.0 - self.args.count_tol)
                self.check(
                    cval >= floor,
                    f"[{where}] {key}: {cval:.6g} vs baseline {bval:.6g} "
                    f"(count tolerance {self.args.count_tol:.0%})")
            elif key in PERF_HIGHER_IS_WORSE:
                self.check(
                    cval <= bval * self.args.perf_tol,
                    f"[{where}] {key}: {cval:.6g} vs baseline {bval:.6g} "
                    f"(x{self.args.perf_tol} budget)")
            elif key in PERF_LOWER_IS_WORSE:
                self.check(
                    cval >= bval / self.args.perf_tol,
                    f"[{where}] {key}: {cval:.6g} vs baseline {bval:.6g} "
                    f"(/{self.args.perf_tol} budget)")


def parse_require(spec):
    for op in (">=", "<=", "==", ">", "<"):
        if op in spec:
            key, value = spec.split(op, 1)
            return key.strip(), op, float(value)
    raise argparse.ArgumentTypeError(
        f"--require needs KEY>VALUE / KEY>=VALUE / KEY<VALUE / "
        f"KEY==VALUE: {spec!r}")


def summary_scalars(doc):
    """Top-level numeric scalars of a BENCH_*.json (the per-row detail
    stays out of the trajectory — rows are re-derivable from the
    uploaded artifacts, scalars are what re-anchoring needs)."""
    return {k: v for k, v in doc.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def update_baselines(files, baselines_dir):
    """Rewrite bench/baselines/ from freshly produced JSON; the target
    file name comes from each document's "bench" field."""
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        bench = doc.get("bench")
        if not isinstance(bench, str) or not bench:
            print(f"error: {path} has no \"bench\" name; cannot place it "
                  f"in {baselines_dir}")
            return 1
        target = os.path.join(baselines_dir, f"BENCH_{bench}.json")
        with open(path) as src:
            payload = src.read()
        with open(target, "w") as dst:
            dst.write(payload)
        print(f"updated {target} from {path}")
    return 0


def append_history(history_path, files):
    """Append each file's summary scalars as one JSONL trajectory entry.

    A file a crashed bench never wrote is noted and skipped rather than
    aborting: the step runs after gate failures precisely to record
    whatever data points exist."""
    with open(history_path, "a") as out:
        for path in files:
            try:
                with open(path) as f:
                    doc = json.load(f)
            except (OSError, ValueError) as err:
                print(f"note  skipping {path}: {err}")
                continue
            entry = {
                "bench": doc.get("bench", os.path.basename(path)),
                "sha": os.environ.get("GITHUB_SHA"),
                "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "scalars": summary_scalars(doc),
            }
            out.write(json.dumps(entry, sort_keys=True) + "\n")
            print(f"appended {entry['bench']} scalars to {history_path}")
    return 0


def print_history(history_path, last):
    """Per bench, the last N runs of the trajectory with the delta of
    every scalar against the run before it."""
    entries = []
    with open(history_path) as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    by_bench = {}
    for entry in entries:
        by_bench.setdefault(entry.get("bench", "<unnamed>"), []).append(entry)
    for bench, runs in sorted(by_bench.items()):
        print(f"== {bench} ({len(runs)} runs, showing last "
              f"{min(last, len(runs))})")
        offset = max(0, len(runs) - last)
        for idx in range(offset, len(runs)):
            run = runs[idx]
            prev = runs[idx - 1] if idx > 0 else None
            parts = []
            for key, val in sorted(run.get("scalars", {}).items()):
                if prev is not None and key in prev.get("scalars", {}):
                    delta = val - prev["scalars"][key]
                    parts.append(f"{key}={val:.6g} ({delta:+.6g})")
                else:
                    parts.append(f"{key}={val:.6g}")
            sha = (run.get("sha") or "")[:9]
            stamp = run.get("time", "?")
            print(f"  {stamp} {sha:<9} " + "  ".join(parts))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", metavar="JSON",
                        help="compare mode: BASELINE CURRENT; "
                             "--update-baselines / --append-history: "
                             "one or more fresh CURRENT files")
    parser.add_argument("--quality-tol", type=float, default=0.05,
                        help="absolute slack on fidelity/completion keys "
                             "(default %(default)s)")
    parser.add_argument("--count-tol", type=float, default=0.15,
                        help="relative slack on delivery/throughput counts "
                             "(default %(default)s)")
    parser.add_argument("--perf-tol", type=float, default=8.0,
                        help="multiplicative budget on wall time / event "
                             "rate (default x%(default)s — CI hardware "
                             "varies; this catches blowups, not percent)")
    parser.add_argument("--require", type=parse_require, action="append",
                        default=[], metavar="KEY>VALUE",
                        help="assert a top-level summary scalar of CURRENT")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baselines dir from the given "
                             "fresh JSON files instead of comparing")
    parser.add_argument("--baselines-dir", default="bench/baselines",
                        help="target of --update-baselines "
                             "(default %(default)s)")
    parser.add_argument("--append-history", metavar="FILE",
                        help="append the given files' summary scalars to "
                             "a JSONL trajectory instead of comparing")
    parser.add_argument("--history", metavar="FILE",
                        help="print the last --last per-bench scalar "
                             "deltas of a JSONL trajectory")
    parser.add_argument("--last", type=int, default=5,
                        help="entries per bench for --history "
                             "(default %(default)s)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    if args.update_baselines:
        if not args.files:
            parser.error("--update-baselines needs at least one fresh "
                         "CURRENT.json")
        return update_baselines(args.files, args.baselines_dir)
    if args.history is not None:
        if args.files:
            parser.error("--history takes no positional files")
        return print_history(args.history, args.last)
    if args.append_history is not None:
        if not args.files:
            parser.error("--append-history needs at least one CURRENT.json")
        return append_history(args.append_history, args.files)
    if len(args.files) != 2:
        parser.error("compare mode needs exactly BASELINE.json and "
                     "CURRENT.json")
    args.baseline, args.current = args.files

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    gate = Gate(args)
    base_rows = {row_identity(r): r for r in base.get("rows", [])}
    cur_rows = {row_identity(r): r for r in cur.get("rows", [])}
    for identity, base_row in base_rows.items():
        cur_row = cur_rows.get(identity)
        gate.check(cur_row is not None,
                   f"baseline row missing from current run: "
                   f"{fmt_identity(identity)}")
        if cur_row is not None:
            gate.compare_row(identity, base_row, cur_row)
    for identity in cur_rows:
        if identity not in base_rows:
            print(f"note  new row (no baseline): {fmt_identity(identity)}")

    for key, bval in summary_scalars(base).items():
        if not is_latency_percentile_key(key):
            continue
        cval = cur.get(key)
        if not isinstance(cval, (int, float)) or isinstance(cval, bool):
            gate.check(False,
                       f"[top-level] {key}: gated metric missing from "
                       f"current run (baseline {bval:.6g})")
            continue
        gate.check(
            cval <= bval + args.quality_tol,
            f"[top-level] {key}: {cval:.6g} vs baseline {bval:.6g} "
            f"(latency tolerance {args.quality_tol})")

    ops = {">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
           "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
           "==": lambda a, b: a == b}
    for key, op, value in args.require:
        actual = cur.get(key)
        gate.check(
            isinstance(actual, (int, float)) and not isinstance(actual, bool)
            and math.isfinite(actual) and ops[op](actual, value),
            f"require {key} {op} {value}: got {actual!r}")

    name = cur.get("bench", args.current)
    if gate.failures:
        print(f"\n{name}: {len(gate.failures)}/{gate.checks} checks failed "
              f"against {args.baseline}")
        return 1
    print(f"{name}: {gate.checks} checks passed against {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
