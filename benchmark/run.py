#!/usr/bin/env python3
"""qlinkbench: the one command that builds, runs and checks the benchmark.

    python3 benchmark/run.py                       # all four workloads
    python3 benchmark/run.py --workload islands --seed 11
    python3 benchmark/run.py --trace out/          # per-layer metrics
    python3 benchmark/run.py --repeat 10           # medians and quartiles

It builds benchmark/ (a standalone Release CMake project over ../src)
into benchmark/build/, runs each workload in its own qlinkbench process,
prints every metric by name with its unit, checks that the outputs are
correct, and exits non-zero when any check fails. The last line of
standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 (the default) the metrics are the end-to-end ones; with
--trace 1 (or --trace DIR) they are the per-layer ones, taken from a
separate traced run plus the comparison legs, and the run writes
DIR/trace_<workload>.json and DIR/layers_<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "qlinkbench")
DEFAULT_TRACE_DIR = os.path.join(BUILD, "trace")
BENCHMARK_JSON = os.path.join(HERE, "..", "BENCHMARK.json")

WORKLOADS = ["link-mixed", "grid-full", "flow-scale", "islands"]
ROUTED = {"grid-full", "flow-scale", "islands"}
FLOW_PLANE = {"flow-scale", "islands"}

# The flow plane's documented tolerance against the full-detail oracle
# (netlayer/flow_plane.hpp, bench_workload_scale).
FLOW_ERROR_TOLERANCE = 0.35
# The islands comparison legs run at this fraction of the workload.
ISLANDS_LEG_SCALE = 0.25
# A single binary run may not hang the benchmark.
BINARY_TIMEOUT_S = 150

# name -> (unit, better). The end-to-end metrics a user of the simulator
# sees; every workload reports all of them.
END_TO_END = {
    "requests_per_s": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pairs_per_sim_s": ("pairs/sim-s", "higher"),
    "mean_fidelity": ("1", "higher"),
    "completed_fraction": ("1", "higher"),
}

# name -> (unit, better). One layer each, named <src module>.<metric>;
# metrics of a layer a workload does not use read 0.
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.events_per_request": ("1", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "sim.shard_rounds": ("count", "lower"),
    "sim.shard_parallel_rounds": ("count", "higher"),
    "sim.shard_idle_jumps": ("count", "higher"),
    "sim.shard_posted": ("count", "lower"),
    "sim.shard_ring_overflows": ("count", "lower"),
    "sim.shard_busy_share": ("1", "higher"),
    "sim.shard_parallel_speedup": ("1", "higher"),
    "proto.mhp_cycle_events": ("count", "lower"),
    "proto.mhp_cycle_share": ("1", "lower"),
    "proto.mhp_cycles_per_pair": ("1", "lower"),
    "proto.mhp_handler_s": ("s", "lower"),
    "net.frames": ("count", "lower"),
    "net.frames_per_pair": ("1", "lower"),
    "net.handler_s": ("s", "lower"),
    "core.egp_attempts": ("count", "lower"),
    "core.egp_successes_per_attempt": ("1", "higher"),
    "core.egp_errors": ("count", "lower"),
    "core.dqp_retransmissions": ("count", "lower"),
    "core.egp_handler_s": ("s", "lower"),
    "qstate.fast_ops": ("count", "lower"),
    "qstate.dense_ops": ("count", "lower"),
    "qstate.promotions": ("count", "lower"),
    "qstate.pool_misses": ("count", "lower"),
    "netlayer.swaps": ("count", "lower"),
    "netlayer.link_pairs_per_pair": ("1", "lower"),
    "netlayer.unclaimed_oks": ("count", "lower"),
    "netlayer.swap_handler_s": ("s", "lower"),
    "netlayer.flow_attempts": ("count", "lower"),
    "netlayer.flow_handler_s": ("s", "lower"),
    "netlayer.submit_us": ("us", "lower"),
    "netlayer.flow_error": ("1", "lower"),
    "routing.blocked_share": ("1", "lower"),
    "routing.rerouted": ("count", "lower"),
    "routing.admission_us": ("us", "lower"),
    "routing.callback_us": ("us", "lower"),
    "routing.timer_handler_s": ("s", "lower"),
    "workload.cycle_events": ("count", "lower"),
    "workload.arrival_events": ("count", "lower"),
    "workload.handler_self_s": ("s", "lower"),
    "obs.poll_s": ("s", "lower"),
    "obs.records": ("count", "lower"),
    "obs.share": ("1", "lower"),
    "setup.topology_s": ("s", "lower"),
    "setup.network_s": ("s", "lower"),
    "setup.calibrate_s": ("s", "lower"),
    "setup.annotate_s": ("s", "lower"),
    "metrics.latency_p50_s": ("sim-s", "lower"),
    "metrics.latency_p90_s": ("sim-s", "lower"),
    "trace.overhead": ("1", "lower"),
}

# A median may also differ from its baseline by this much in absolute
# terms: a few milliseconds of set-up move with the host, not the code.
ABSOLUTE_FLOORS = {"setup_s": 0.02}


# ---- statistics -------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(better, base, value):
    """How much worse `value` is than `base`, as a share of `base`
    (negative when it is better)."""
    if base == 0:
        return 0.0 if value == base else float("inf")
    change = (value - base) / abs(base)
    return -change if better == "higher" else change


def within_bound(better, base, value, bound, floor=0.0):
    """True unless `value` is worse than `base` by more than the relative
    `bound` and, when given, by more than the absolute `floor`."""
    if worse_by(better, base, value) <= bound:
        return True
    return abs(value - base) <= floor


# ---- metrics ------------------------------------------------------------

def requests_per_s(run):
    """Completed requests per host second of the timed phases: each
    instance counts once, at the median of its repeated timings, so the
    number of repeats a run fits in does not shift the mix."""
    times = {}
    completed = {}
    for i, t, n in zip(run["rep_instance"], run["rep_run_s"],
                       run["rep_completed"]):
        times.setdefault(i, []).append(t)
        completed[i] = n
    total_s = sum(statistics.median(ts) for ts in times.values())
    return sum(completed.values()) / total_s


def flow_error(run):
    """grid-full's flow twin against full detail: the largest relative
    error over latency p50, p90 and mean fidelity."""
    full, twin = run["model"], run.get("twin")
    if twin is None:
        return None
    return max(abs(twin[k] - full[k]) / abs(full[k])
               for k in ("latency_p50_s", "latency_p90_s", "mean_fidelity"))


def end_to_end(run):
    c, model = run["counters"], run["model"]
    return {
        "requests_per_s": requests_per_s(run),
        "setup_s": statistics.median(run["rep_setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "pairs_per_sim_s": model["pairs"] / run["sim_s"],
        "mean_fidelity": model["mean_fidelity"],
        "completed_fraction":
            c["requests.completed"] / c["requests.submitted"],
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(workload, base, traced, legs):
    """Per-layer metrics. Counts come from the deterministic model pass;
    times from the traced run; ns_per_event from the untraced run; the
    shares and speedup from the comparison legs."""
    c, labels, spans = traced["counters"], traced["labels"], traced["spans"]

    def count(key):
        return c.get(key, 0.0)

    def label(prefix, field):
        return sum(v[field] for k, v in labels.items() if k.startswith(prefix))

    def span(name, field="total_s"):
        return spans.get(name, {}).get(field, 0.0)

    events = count("sim.events")
    pairs = count("requests.pairs")
    base_wall = sum(base["first_run_s"])
    traced_wall = sum(traced["first_run_s"])
    handlers = sum(v["wall_s"] for v in labels.values())
    callbacks = span("router.deliver") + span("router.error")
    plane_calls = span("plane.submit", "count") + span(
        "plane.drain_submit", "count")
    setups = max(span("setup.network", "count"), 1.0)
    m = {
        "sim.events": events,
        "sim.events_per_request":
            _ratio(events, count("requests.submitted")),
        "sim.ns_per_event": _ratio(sum(base["first_run_s"]), events) * 1e9,
        "sim.shard_busy_share": _ratio(
            handlers, max(count("sim.shards"), 1.0) * traced_wall),
        "proto.mhp_cycle_events": label("mhp.cycle", "count"),
        "proto.mhp_cycle_share": _ratio(label("mhp.cycle", "count"), events),
        "proto.mhp_cycles_per_pair":
            _ratio(label("mhp.cycle", "count"), pairs),
        "proto.mhp_handler_s": label("mhp.", "wall_s"),
        "net.frames": label("net.channel", "count"),
        "net.frames_per_pair": _ratio(label("net.channel", "count"), pairs),
        "net.handler_s": label("net.channel", "wall_s"),
        "core.egp_attempts": count("core.egp_attempts"),
        "core.egp_successes_per_attempt":
            _ratio(count("core.egp_successes"), count("core.egp_attempts")),
        "core.egp_errors": count("core.egp_errors"),
        "core.dqp_retransmissions": count("core.dqp_retransmissions"),
        "core.egp_handler_s":
            label("egp.", "wall_s") + label("dqp.", "wall_s"),
        "netlayer.swaps": count("netlayer.swaps"),
        "netlayer.link_pairs_per_pair":
            _ratio(count("netlayer.link_pairs_consumed"), pairs),
        "netlayer.unclaimed_oks": count("netlayer.unclaimed_oks"),
        "netlayer.swap_handler_s": 0.0,
        "netlayer.flow_attempts": count("netlayer.flow_attempts"),
        "netlayer.flow_handler_s": 0.0,
        "netlayer.submit_us": _ratio(
            span("plane.submit") + span("plane.drain_submit"),
            plane_calls) * 1e6,
        "netlayer.flow_error": flow_error(base) or 0.0,
        "routing.blocked_share":
            _ratio(count("routing.blocked"), count("routing.submitted")),
        "routing.rerouted": count("routing.rerouted"),
        "routing.admission_us": _ratio(
            span("router.submit", "self_s"),
            span("router.submit", "count")) * 1e6,
        "routing.callback_us": _ratio(
            span("router.deliver", "self_s") + span("router.error", "self_s"),
            span("router.deliver", "count") + span("router.error", "count"))
        * 1e6,
        "routing.timer_handler_s": label("router.", "wall_s"),
        "workload.cycle_events": label("workload.cycle", "count"),
        "workload.arrival_events": label("workload.arrival", "count"),
        # The Router's admission runs inside workload.arrival handlers.
        "workload.handler_self_s":
            label("workload.", "wall_s") - span("router.submit"),
        "obs.poll_s": span("obs.poll") + span("obs.finish"),
        "obs.records": count("obs.records"),
        "obs.share": 0.0,
        "setup.topology_s": span("setup.topology") / setups,
        "setup.network_s": span("setup.network") / setups,
        "setup.calibrate_s": span("setup.calibrate") / setups,
        "setup.annotate_s": span("setup.annotate") / setups,
        "metrics.latency_p50_s": base["model"]["latency_p50_s"],
        "metrics.latency_p90_s": base["model"]["latency_p90_s"],
        "trace.overhead": _ratio(traced_wall, base_wall) - 1.0,
        "sim.shard_parallel_speedup": 0.0,
    }
    for key in ("sim.shard_rounds", "sim.shard_parallel_rounds",
                "sim.shard_idle_jumps", "sim.shard_posted",
                "sim.shard_ring_overflows", "qstate.fast_ops",
                "qstate.dense_ops", "qstate.promotions", "qstate.pool_misses"):
        m[key] = count(key)
    # Plane handlers deliver through the Router's wrapped callbacks; their
    # self time excludes those.
    if workload == "grid-full":
        m["netlayer.swap_handler_s"] = label("swap.", "wall_s") - callbacks
    if workload in FLOW_PLANE:
        m["netlayer.flow_handler_s"] = label("flow.", "wall_s") - callbacks
    if "obs-off" in legs:
        m["obs.share"] = 1.0 - _ratio(sum(legs["obs-off"]["first_run_s"]),
                                      base_wall)
    if "parallel-off" in legs:
        m["sim.shard_parallel_speedup"] = _ratio(
            sum(legs["parallel-off"]["first_run_s"]),
            sum(legs["parallel-auto"]["first_run_s"]))
    return {name: m[name] for name in PER_LAYER}


# ---- checks ----------------------------------------------------------------

def checks(workload, base, traced=None, legs=None):
    """[(description, passed)] for one workload's runs."""
    legs = legs or {}
    c, model = base["counters"], base["model"]
    out = [
        ("Release build", base["build_type"] == "Release" and base["ndebug"]),
        ("repeated instances reproduce their digests", base["repeats_match"]),
        ("every delivered pair meets the requested fidelity "
         f"{base['min_fidelity_requested']}",
         model["fidelity_min"] >= base["min_fidelity_requested"]),
    ]
    out.append(("every submitted request settled",
                c["requests.unsettled"] == 0))
    if workload in ROUTED:
        out.append(("Router pairs == Collector pairs",
                    c["routing.pairs_delivered"] == model["pairs"]))
    if workload == "flow-scale":
        out.append(("flow-scale never stalls",
                    c.get("obs.stalled_intervals", 0) == 0))
    if workload == "grid-full":
        err = flow_error(base)
        out.append((f"flow_error <= {FLOW_ERROR_TOLERANCE}",
                     err is not None and err <= FLOW_ERROR_TOLERANCE))
    if traced is not None:
        out.append(("traced digest == untraced digest",
                    traced["digest"] == base["digest"]))
        if workload in ROUTED:
            tc = traced["counters"]
            out.append(("Router pairs == TimedPlane deliveries",
                        tc.get("routing.timed_deliveries")
                        == tc["routing.pairs_delivered"]))
    if "obs-off" in legs:
        out.append(("obs-detached digest == obs digest",
                    legs["obs-off"]["digest"] == base["digest"]))
    if "parallel-off" in legs:
        out.append(("kOff digest == kAuto digest",
                    legs["parallel-off"]["digest"]
                    == legs["parallel-auto"]["digest"]))
    return out


# ---- running -------------------------------------------------------------

def build():
    """Configure (once) and build; build output goes to stderr so the
    last stdout line stays the result."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def run_binary(workload, seed, seconds, extra=()):
    """One qlinkbench process; returns its parsed JSON result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=BINARY_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace_dir, runner):
    """Run one workload: the untraced run, and with a trace directory the
    traced run and the comparison legs. Returns (metrics, checks, base)."""
    base = runner(workload, seed, seconds)
    if trace_dir is None:
        return end_to_end(base), checks(workload, base), base
    traced = runner(workload, seed, 0, ("--trace", trace_dir))
    legs = {}
    if workload == "flow-scale":
        legs["obs-off"] = runner(workload, seed, 0, ("--obs", "off"))
    if workload == "islands":
        for mode in ("off", "auto"):
            legs["parallel-" + mode] = runner(
                workload, seed, 0,
                ("--scale", str(ISLANDS_LEG_SCALE), "--parallel", mode))
    layers = per_layer(workload, base, traced, legs)
    with open(os.path.join(trace_dir, f"layers_{workload}.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "metrics": layers,
                   "counters": traced["counters"],
                   "labels": traced["labels"], "spans": traced["spans"]},
                  f, indent=1, sort_keys=True)
    return layers, checks(workload, base, traced, legs), base


def print_metrics(workload, metrics, table):
    print(f"== {workload}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {table[name][0]}")


def print_checks(workload, results):
    for text, ok in results:
        print(f"  [{'ok' if ok else 'FAIL'}] {workload}: {text}")


def result_line(correct, attempted, failed, metrics, table):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]}
                    for k, v in metrics.items()}})


def load_bounds(path=BENCHMARK_JSON):
    """End-to-end metric name -> bound, from BENCHMARK.json."""
    with open(path) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def compare(summary, baseline, bounds):
    """[(description, passed)]: every median of `summary` within its bound
    of `baseline`'s, and the model outputs and digests identical."""
    out = []
    for w, now in summary.items():
        if w not in baseline:
            continue
        before = baseline[w]
        for name, (_, better) in END_TO_END.items():
            a = before["metrics"][name]["median"]
            b = now["metrics"][name]["median"]
            out.append((f"{w} {name} {b:.6g} vs baseline {a:.6g} within "
                        f"{bounds[name]:.0%}",
                        within_bound(better, a, b, bounds[name],
                                     ABSOLUTE_FLOORS.get(name, 0.0))))
        out.append((f"{w} model outputs and digest match the baseline",
                    now["model"] == before["model"]
                    and now["digest"] == before["digest"]))
    return out


def repeat(workloads, seed, seconds, n, runner, baseline=None):
    """Run every workload n times, alternating the order, and summarise
    each end-to-end metric by its median and quartiles. Fails when a
    check fails, when repeated runs disagree on the model outputs, or
    when a median is worse than `baseline`'s by more than its bound."""
    bounds = load_bounds()
    runs = {w: [] for w in workloads}
    for r in range(n):
        for w in (workloads if r % 2 == 0 else list(reversed(workloads))):
            runs[w].append(measure(w, seed, seconds, None, runner))
    results = []
    summary = {}
    for w in workloads:
        print(f"== {w} ({n} runs, seed {seed})")
        stats = {}
        for name, (unit, _) in END_TO_END.items():
            values = [m[name] for m, _, _ in runs[w]]
            q1, med, q3 = quartiles(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread(values)}
            print(f"  {name:20s} median {med:12.6g} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread(values):7.2%} "
                  f"(bound {bounds[name]:.0%}) {unit}")
        bases = [b for _, _, b in runs[w]]
        summary[w] = {"metrics": stats, "digest": bases[0]["digest"],
                      "model": bases[0]["model"]}
        checked = [(f"{w}: {text}", all(r[i][1] for _, r, _ in runs[w]))
                   for i, (text, _) in enumerate(runs[w][0][1])]
        checked.append((f"{w}: model outputs and digests identical "
                        "across runs",
                        all(b["model"] == bases[0]["model"]
                            and b["digest"] == bases[0]["digest"]
                            for b in bases)))
        results += checked
    if baseline is not None:
        results += compare(summary, baseline, bounds)
    print_checks("repeat", results)
    ok = all(passed for _, passed in results)
    every = [b for w in workloads for _, _, b in runs[w]]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(int(b["counters"]["requests.submitted"])
                         for b in every),
        "failed": sum(int(b["counters"]["requests.failed"]) for b in every),
        "repeat": n, "seed": seed, "summary": summary}))
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all four)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="host seconds each untraced run measures for")
    p.add_argument("--trace", default="0",
                   help="0: end-to-end metrics; 1 or DIR: per-layer "
                        "metrics from a traced run, trace files in DIR")
    p.add_argument("--repeat", type=int, default=1,
                   help="run each workload N times and report quartiles")
    p.add_argument("--baseline", metavar="FILE",
                   help="with --repeat: fail unless every median is "
                        "within its bound of the result line in FILE")
    args = p.parse_args(argv)
    if args.repeat < 1 or args.seconds < 0:
        p.error("--repeat must be >= 1 and --seconds >= 0")
    if args.repeat > 1 and args.trace != "0":
        p.error("--repeat measures end-to-end metrics; drop --trace")
    if args.baseline and args.repeat < 2:
        p.error("--baseline compares --repeat summaries")
    return args


def main(argv=None, runner=run_binary, build_fn=build):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        build_fn()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.repeat > 1:
        baseline = None
        if args.baseline:
            with open(args.baseline) as f:
                baseline = json.loads(f.read().strip().splitlines()[-1])
            baseline = baseline["summary"]
        return repeat(workloads, args.seed, args.seconds, args.repeat,
                      runner, baseline)
    trace_dir = None
    if args.trace != "0":
        trace_dir = os.path.abspath(
            DEFAULT_TRACE_DIR if args.trace == "1" else args.trace)
        os.makedirs(trace_dir, exist_ok=True)
    table = END_TO_END if trace_dir is None else PER_LAYER
    ok, attempted, failed, all_metrics = True, 0, 0, {}
    for w in workloads:
        metrics, results, base = measure(w, args.seed, args.seconds,
                                         trace_dir, runner)
        print_metrics(w, metrics, table)
        print_checks(w, results)
        ok = ok and all(passed for _, passed in results)
        attempted += int(base["counters"]["requests.submitted"])
        failed += int(base["counters"]["requests.failed"])
        all_metrics[w] = metrics
    if args.workload:
        print(result_line(ok, attempted, failed, all_metrics[args.workload],
                          table))
    else:
        print(json.dumps({"correct": ok, "attempted": attempted,
                          "failed": failed, "workloads": {
                              w: {k: {"value": v, "unit": table[k][0]}
                                  for k, v in m.items()}
                              for w, m in all_metrics.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        print(f"qlinkbench failed: {e}", file=sys.stderr)
        sys.exit(1)
