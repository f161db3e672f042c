#!/usr/bin/env python3
"""Benchmark of the VANET simulator: builds the driver, runs named workloads,
checks their outputs and prints every metric with its unit.

Three modes, all run from the root of a source checkout:

  run.py --workload W --seed N --seconds S --trace 0|1
      One measured run of one workload. Inputs come from --seed; the run
      repeats driver processes (one input each) for S seconds. The last line
      of stdout is one JSON object: correct, attempted, failed and metrics
      (the end-to-end metrics with --trace 0, the per-layer ones with 1).
  run.py [--seconds S]
      Every workload, round-robin, ROUNDS rounds, then one traced run of
      each; prints each metric's median, quartiles and sample count.
  run.py --pair A B [--pairs N] [--workload W ...]
      Interleaved comparison of two source trees A and B built with this
      benchmark's code: per (metric, workload) each side's median and
      quartiles, how often B wins, and a verdict (ok / regressed /
      unresolved) against the bound in BENCHMARK.json.

--set key=value passes a config_kv override to every driver call (ad-hoc
diagnostics); --b-set key=value applies to side B of --pair only.
See perfbench/README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"

SWEEP = "paper-sweep"
SWEEP_RUNS = 50          # 5 regimes x 5 protocols x 2 seeds per input
SWEEP_JOBS = 4           # engine workers of a timed sweep input
MIN_REPS = 3             # inputs per run even when --seconds runs out
RUN_BUDGET_S = 150       # a run starts no driver call after this long
ROUNDS = 5               # timed rounds of the default (suite) mode
BUILD_JOBS = min(4, os.cpu_count() or 1)

# Digest of input 0 of --seed 1 per workload. A mismatch means the
# simulator's results changed: reported, not counted as a failure, because a
# deliberate golden regeneration is allowed.
PINNED = {
    "urban-aodv": "d18d592b94496392",
    "lossy-etx": "f3d374f25f133b78",
    "city-greedy": "22b8b6e67c61c524",
    "paper-sweep": "799b45d83414fe7d",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25


class BenchError(Exception):
    """Set-up problem: the benchmark cannot run at all."""


# ------------------------------------------------------------- statistics ---

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(n=4) gives them; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values):
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else 0.0


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def highest_percentile(n):
    """Highest percentile of TAIL_LADDER with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p):
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def worsening(base, new, better):
    """Share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def verdict(a_values, b_values, better, bound):
    """Pair-mode verdict for one (metric, workload): regressed when B's
    median is worse than A's by more than the bound; unresolved when A's
    quartile spread is wider than the bound, unless every B run beats every
    A run; ok otherwise."""
    if worsening(median(a_values), median(b_values), better) > bound:
        return "regressed"
    if better == "lower":
        all_better = max(b_values) < min(a_values)
    else:
        all_better = min(b_values) > max(a_values)
    if relative_spread(a_values) > bound and not all_better:
        return "unresolved"
    return "ok"


def win_fraction(a_values, b_values, better):
    """Fraction of pairs B wins; ties count for neither side."""
    wins = 0
    for a, b in zip(a_values, b_values):
        if (b < a) if better == "lower" else (b > a):
            wins += 1
    return wins / len(a_values) if a_values else 0.0


# ----------------------------------------------------------------- config ---

def load_config(path=ROOT / "BENCHMARK.json"):
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    problems = validate_config(cfg)
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    return cfg


def validate_config(cfg):
    """Problems with a BENCHMARK.json document (empty list when valid)."""
    problems = []
    names = []
    workloads = cfg.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        problems.append("needs 2 to 8 workloads")
    names += [w.get("name", "") for w in workloads]
    e2e = cfg.get("end_to_end", [])
    layers = cfg.get("per_layer", [])
    if not 1 <= len(e2e) <= MAX_END_TO_END:
        problems.append(f"needs 1 to {MAX_END_TO_END} end-to-end metrics")
    if not 1 <= len(layers) <= MAX_PER_LAYER:
        problems.append(f"needs 1 to {MAX_PER_LAYER} per-layer metrics")
    for m in e2e + layers:
        names.append(m.get("name", ""))
        if not UNIT_RE.match(m.get("unit", "")):
            problems.append(f"bad unit for {m.get('name')}")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"bad 'better' for {m.get('name')}")
    for m in e2e:
        if not 0 < m.get("bound", -1) <= MAX_BOUND:
            problems.append(f"bound of {m.get('name')} outside (0, {MAX_BOUND}]")
    if not any(m.get("name") == "setup_s" and m.get("unit") == "s" and
               m.get("better") == "lower" for m in e2e):
        problems.append("setup_s (s, lower) is required")
    for n in names:
        if not NAME_RE.match(n):
            problems.append(f"bad name {n!r}")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        problems.append(f"names used twice: {dupes}")
    return problems


# ------------------------------------------------------------------ build ---

def build(src_root, build_dir):
    """Configures (once) and builds the driver against src_root/src."""
    src_root = Path(src_root).resolve()
    if not (src_root / "src").is_dir():
        raise BenchError(f"no simulator sources under {src_root}/src")
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DVANET_SOURCE_DIR={src_root}"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(BUILD_JOBS),
                  "--target", "bench_workloads"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return build_dir / "bench_workloads"


# ---------------------------------------------------------------- running ---

def input_seed(seed, k):
    """Seed of the k-th input of a run; runs of different seeds never share
    an input."""
    return seed * 1000 + k


def call_driver(exe, workload, seed, trace=False, spans=None, jobs=None,
                sets=(), timeout=RUN_BUDGET_S):
    """One driver process. Returns (output dict, None) or (None, error)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    for kv in sets:
        cmd += ["--set", kv]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if p.returncode != 0:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-300:]}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable output"


def sanity_problem(out, workload, traced):
    """Why a driver output cannot be right, or None."""
    runs = SWEEP_RUNS if workload == SWEEP else 1
    if out.get("workload") != workload or out.get("runs") != runs:
        return f"expected {runs} run(s) of {workload}"
    if not re.fullmatch(r"[0-9a-f]{16}", out.get("digest", "")):
        return "missing digest"
    if min(out["run_s"], out["setup_s"], out["events"], out["originated"]) <= 0:
        return "empty run"
    if out["delivered"] > out["originated"]:
        return "delivered more packets than originated"
    if traced:
        t = out["trace"]
        covered = sum(e["total_s"] for e in t["events"].values())
        if covered > t["run_s"] * 1.001:
            return "event spans exceed the traced run time"
    return None


class Run:
    """Outcome of one measured run: every driver call and its checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reps = []     # untraced outputs, in input order
        self.pairs = []    # (traced, untraced) outputs of one input

    def record(self, out, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            return None
        return out

    def reject(self, error):
        """A call that returned output which failed a check."""
        self.failed += 1
        self.errors.append(error)

    @property
    def correct(self):
        return self.failed == 0


def measure(exe, workload, seed, seconds, trace, sets=(), spans=None):
    """Repeats inputs of `workload` for `seconds` (at least MIN_REPS), after
    one warm-up call on input 0 that also serves as its repeat check (for the
    sweep at --jobs 1, so jobs=1 must equal jobs=4)."""
    run = Run()
    sweep = workload == SWEEP
    limit = time.monotonic() + RUN_BUDGET_S

    def call(k, traced=False, spans_file=None, jobs=None):
        s = input_seed(seed, k)
        timeout = max(1.0, limit - time.monotonic())
        out = run.record(*call_driver(exe, workload, s, traced, spans_file,
                                      jobs, sets, timeout))
        if out is not None:
            problem = sanity_problem(out, workload, traced)
            if problem:
                run.reject(f"input {s}: {problem}")
                return None
        return out

    warm = call(0, jobs=1 if sweep else None)
    deadline = time.monotonic() + seconds
    k = 0
    while ((k < MIN_REPS or time.monotonic() < deadline) and
           time.monotonic() < limit):
        out = call(k, jobs=SWEEP_JOBS if sweep else None)
        if out is not None:
            run.reps.append(out)
            if k == 0 and warm is not None and warm["digest"] != out["digest"]:
                run.reject(f"input {input_seed(seed, 0)}: digest differs "
                           "between two runs of the same input")
            if k == 0 and seed == 1 and not sets and \
                    out["digest"] != PINNED.get(workload):
                print(f"PHYSICS CHANGED: {workload} input {input_seed(1, 0)} "
                      f"digest {out['digest']}, pinned {PINNED.get(workload)}",
                      file=sys.stderr)
        if trace:
            t = call(k, traced=True, spans_file=spans if k == 0 else None)
            if t is not None and out is not None:
                if t["digest"] != out["digest"]:
                    run.reject(f"input {input_seed(seed, k)}: traced digest "
                               "differs from untraced")
                else:
                    run.pairs.append((t, out))
        k += 1
    return run


# ---------------------------------------------------------------- metrics ---

def end_to_end_metrics(reps):
    """Each metric over the inputs of one run. setup_s is already a median
    of several constructions per input; those take a few milliseconds and
    share the host's speed of that moment, so per-input values fall in a
    fast and a slow cluster and a median over inputs would jump between
    them. The mean moves smoothly with the share of slow inputs."""
    return {
        "run_s": median([r["run_s"] for r in reps]),
        "setup_s": statistics.fmean([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traced, untraced):
    """Per-layer metrics of one input: times and counts from the traced
    call, rates and engine occupancy from its untraced twin."""
    t = traced["trace"]
    ev = t["events"]
    n = t["net"]

    def self_s(k):
        return ev[k]["total_s"] - ev[k]["child_s"]

    hello, rx, fail = t["hello_rx"], t["routing_rx"], t["routing_fail"]
    rx_attempts = (n["receptions_ok"] + n["receptions_collided"] +
                   n["receptions_faded"])
    engine_s = untraced["workers"] * untraced["engine_wall_s"]
    return {
        "core.events": sum(e["count"] for e in ev.values()),
        "core.events_per_s": _ratio(untraced["events"], untraced["busy_s"]),
        "core.event_us_p50": t["event_us_p50"],
        "core.event_us_p99": t["event_us_p99"],
        "core.sched_peak_pending": traced["sched_peak_pending"],
        "core.sched_slab_allocs": traced["sched_slab_allocs"],
        "mobility.ticks": ev["tick"]["count"],
        "mobility.tick_s": self_s("tick"),
        "mobility.populate_s": t["mobility_populate_s"],
        "map.build_s": t["map_build_s"],
        "net.tx_starts": ev["tx_start"]["count"],
        "net.tx_start_s": self_s("tx_start"),
        "net.tx_ends": ev["tx_end"]["count"],
        "net.tx_end_self_s": self_s("tx_end"),
        "net.send_s": self_s("send"),
        "net.hello.rx": hello["count"],
        "net.hello.rx_s": hello["total_s"],
        "net.hello.rx_us_mean": _ratio(hello["total_s"] * 1e6, hello["count"]),
        "net.hello.bytes_mean": _ratio(t["hello_rx_bytes"], hello["count"]),
        "net.bytes_per_frame": _ratio(n["bytes_sent"], n["frames_sent"]),
        "net.rx_attempts": rx_attempts,
        "net.rx_ok_fraction": _ratio(n["receptions_ok"], rx_attempts),
        "net.collision_fraction": _ratio(n["receptions_collided"], rx_attempts),
        "net.faded_fraction": _ratio(n["receptions_faded"], rx_attempts),
        "net.queue_drops": n["frames_dropped_queue"],
        "net.unicast_retries": n["unicast_retries"],
        "net.unicast_failures": n["unicast_failures"],
        "routing.rx": rx["count"],
        "routing.rx_s": rx["total_s"],
        "routing.rx_us_mean": _ratio(rx["total_s"] * 1e6, rx["count"]),
        "routing.fail_s": fail["total_s"],
        "routing.discoveries": t["discoveries"],
        "routing.route_breaks": t["route_breaks"],
        "routing.dropped_no_route": t["dropped_no_route"],
        "routing.data_tx_per_delivery": _ratio(n["data_frames_sent"],
                                               traced["delivered"]),
        "sim.originate_s": self_s("originate"),
        "sim.timer_s": self_s("timer"),
        "sim.engine.busy_fraction": _ratio(untraced["busy_s"], engine_s),
        "sim.engine.idle_s": engine_s - untraced["busy_s"],
        "sim.delay_ms_p50": t["delay_ms_p50"],
        "sim.delay_ms_p95": t["delay_ms_p95"],
        "sim.delay_ms_p99": t["delay_ms_p99"],
        "sim.delay_ms_p95_hint": t["delay_ms_p95_hint"],
        "trace.overhead": _ratio(traced["busy_s"], untraced["busy_s"]) - 1.0,
        "trace.coverage": _ratio(sum(e["total_s"] for e in ev.values()),
                                 t["run_s"]),
    }


def per_layer_metrics(pairs):
    per_input = [layer_metrics(t, u) for t, u in pairs]
    return {name: median([m[name] for m in per_input])
            for name in per_input[0]}


def result_line(run, trace, cfg):
    """The contract's last stdout line for one run."""
    metrics = {}
    if trace and run.pairs:
        values = per_layer_metrics(run.pairs)
        specs = cfg["per_layer"]
    elif not trace and run.reps:
        values = end_to_end_metrics(run.reps)
        specs = cfg["end_to_end"]
    else:
        values, specs = {}, []
    for m in specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = run.correct and len(metrics) == len(
        cfg["per_layer" if trace else "end_to_end"])
    return json.dumps({"correct": correct, "attempted": run.attempted,
                       "failed": run.failed, "metrics": metrics})


# ------------------------------------------------------------------ modes ---

def fmt(v):
    return f"{v:.6g}"


def workload_names(args, cfg):
    """The --workload names (all workloads when none), checked."""
    names = [w["name"] for w in cfg["workloads"]]
    for w in args.workload:
        if w not in names:
            raise BenchError(f"unknown workload {w!r}; one of {names}")
    return args.workload or names


def add_samples(samples, values):
    for k, v in values.items():
        samples.setdefault(k, []).append(v)


def main_single(args, cfg):
    exe = build(ROOT, BUILD_DIR)
    spans = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload[0]}-{args.seed}.jsonl"
    run = measure(exe, args.workload[0], args.seed, args.seconds, args.trace,
                  args.set, spans)
    for e in run.errors:
        print(f"FAILED: {e}", file=sys.stderr)
    print(f"{args.workload[0]}: {len(run.reps)} inputs, "
          f"{run.attempted} calls, {run.failed} failed")
    print(result_line(run, args.trace, cfg))
    return 0


def summary_rows(workload, specs, samples):
    """Table rows: metric, unit, median, q1, q3, n, tail, bound."""
    rows = []
    for m in specs:
        values = samples.get(m["name"], [])
        if not values:
            continue
        q1, q3 = quartiles(values)
        tail = highest_percentile(len(values))
        rows.append([workload, m["name"], m["unit"], fmt(median(values)),
                     fmt(q1), fmt(q3), str(len(values)),
                     f"p{tail:g}={fmt(percentile(values, tail))}" if tail
                     else "-",
                     fmt(m["bound"]) if "bound" in m else "-"])
    return rows


def print_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def main_suite(args, cfg):
    exe = build(ROOT, BUILD_DIR)
    workloads = workload_names(args, cfg)
    e2e = {w: {} for w in workloads}
    attempted = failed = 0
    for r in range(ROUNDS):
        for i in range(len(workloads)):
            w = workloads[(i + r) % len(workloads)]
            run = measure(exe, w, r + 1, args.seconds, False, args.set)
            attempted, failed = attempted + run.attempted, failed + run.failed
            for e in run.errors:
                print(f"FAILED: {w}: {e}", file=sys.stderr)
            if run.reps:
                add_samples(e2e[w], end_to_end_metrics(run.reps))
            print(f"round {r + 1}/{ROUNDS} {w}: {len(run.reps)} inputs",
                  file=sys.stderr)
    rows = []
    for w in workloads:
        rows += summary_rows(w, cfg["end_to_end"], e2e[w])
    print("# End-to-end (median over runs of each run's value; n = runs)")
    print_table(["workload", "metric", "unit", "median", "q1", "q3", "n",
                 "tail", "bound"], rows)
    OUT_DIR.mkdir(exist_ok=True)
    layer_rows = []
    for w in workloads:
        run = measure(exe, w, 1, args.seconds, True, args.set,
                      OUT_DIR / f"spans-{w}-1.jsonl")
        attempted, failed = attempted + run.attempted, failed + run.failed
        samples = {}
        for t, u in run.pairs:
            add_samples(samples, layer_metrics(t, u))
        layer_rows += summary_rows(w, cfg["per_layer"], samples)
    print("\n# Per-layer (one traced run; n = inputs; spans in .bench_out/)")
    print_table(["workload", "metric", "unit", "median", "q1", "q3", "n",
                 "tail", "bound"], layer_rows)
    print(f"\nattempted {attempted}, failed {failed}")
    return 0 if failed == 0 else 1


def main_pair(args, cfg):
    exe_a = build(args.pair[0], BUILD_DIR / "pair-a")
    exe_b = build(args.pair[1], BUILD_DIR / "pair-b")
    workloads = workload_names(args, cfg)
    rows = []
    failed = {"A": 0, "B": 0}
    attempted = {"A": 0, "B": 0}
    for w in workloads:
        values = {"A": {}, "B": {}}
        for i in range(args.pairs):
            sides = [("A", exe_a, args.set), ("B", exe_b, args.set + args.b_set)]
            if i % 2:
                sides.reverse()
            for side, exe, sets in sides:
                run = measure(exe, w, i + 1, args.seconds, False, sets)
                attempted[side] += run.attempted
                failed[side] += run.failed
                for e in run.errors:
                    print(f"FAILED: {side} {w}: {e}", file=sys.stderr)
                if run.reps:
                    add_samples(values[side], end_to_end_metrics(run.reps))
            print(f"{w}: pair {i + 1}/{args.pairs}", file=sys.stderr)
        for m in cfg["end_to_end"]:
            a, b = values["A"].get(m["name"]), values["B"].get(m["name"])
            if not a or not b or len(a) != len(b):
                rows.append([w, m["name"], m["unit"]] + ["-"] * 8 + ["failed"])
                continue
            qa, qb = quartiles(a), quartiles(b)
            gain = (win_fraction(a, b, m["better"]) >= 0.9 and
                    abs(median(b) - median(a)) > qa[1] - qa[0])
            rows.append([w, m["name"], m["unit"], fmt(median(a)), fmt(qa[0]),
                         fmt(qa[1]), fmt(median(b)), fmt(qb[0]), fmt(qb[1]),
                         f"{win_fraction(a, b, m['better']):.2f}",
                         "yes" if gain else "no",
                         verdict(a, b, m["better"], m["bound"])])
    print_table(["workload", "metric", "unit", "A_median", "A_q1", "A_q3",
                 "B_median", "B_q1", "B_q3", "B_wins", "gain", "verdict"],
                rows)
    for side in ("A", "B"):
        frac = _ratio(failed[side], attempted[side])
        print(f"{side}: attempted {attempted[side]}, failed {failed[side]} "
              f"(failed_fraction {frac:.3f})")
    return 0 if failed["A"] == failed["B"] == 0 else 1


def parse_args(argv, cfg):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", default=[],
                    help="workload name (repeatable in the suite and --pair)")
    ap.add_argument("--seed", type=int,
                    help="seed of one measured run of one --workload")
    ap.add_argument("--seconds", type=float, default=cfg["run_seconds"],
                    help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pair", nargs=2, metavar=("A", "B"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ap.add_argument("--b-set", action="append", default=[], metavar="KEY=VALUE")
    return ap.parse_args(argv)


def main(argv=None):
    try:
        cfg = load_config()
        args = parse_args(argv, cfg)
        if args.pair:
            return main_pair(args, cfg)
        workload_names(args, cfg)
        if args.seed is not None:
            if len(args.workload) != 1:
                raise BenchError("--seed measures exactly one --workload")
            return main_single(args, cfg)
        return main_suite(args, cfg)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
