#!/usr/bin/env python3
"""Diff a fresh bench_scenario_throughput JSON against a committed baseline.

Usage:
    bench_compare.py BASELINE.json FRESH.json [--perf-tolerance 0.15]

Runs are matched by (family, protocol, requested_vehicles, seed,
sim_duration_s); a baseline can therefore carry both the full sweep and the
CI `--smoke` rows, and the comparison uses whatever subset the fresh file
exercised. The protocol is part of the key so a family whose protocol varies
per row (map-aware) can never be compared against the wrong baseline row.

Exit status 1 (regression) when any matched run:
  - disagrees on `report_digest` or `events_dispatched` — the physics moved,
    which a perf refactor must never do (see docs/PERFORMANCE.md);
  - slowed down by more than --perf-tolerance in events/sec (default 15%);
  - reports a warm scheduler heap-fallback (`sched_oversize_callbacks` above
    0.1% of dispatched events) — the small-buffer optimisation went cold;
  - shows a geometry-cache warm hit rate (lifetime memo / segment snapshot,
    see docs/ARCHITECTURE.md "Scenario-owned caches") more than 5 points
    below the baseline rate — only enforced when both runs expose the
    counters and both saw enough lookups for the rate to mean anything.
Also fails when no runs matched at all, so a renamed config cannot silently
disable the check.

Perf numbers only compare like with like when baseline and fresh ran on the
same class of machine; the digest check is machine-independent and is the
part that must never fire.
"""

import argparse
import json
import sys


# Warm-cache regression thresholds. A cache that was never exercised (tiny
# run, or a family that does not own the cache) has a meaningless rate, so
# rates only compare when both runs saw at least MIN_CACHE_SAMPLE lookups.
CACHE_RATE_CHECKS = (
    # (label, rate field, fields summed for the lookup count)
    (
        "lifetime memo",
        "lifetime_memo_hit_rate",
        ("lifetime_memo_hits", "lifetime_memo_misses"),
    ),
    ("segment snapshot", "seg_snapshot_hit_rate", ("seg_snapshot_queries",)),
)
MIN_CACHE_SAMPLE = 1000
CACHE_RATE_SLACK = 0.05


def cache_rate_failures(name, baseline, fresh):
    """Failure strings for geometry caches that went cold vs the baseline.

    Returns [] when the counters are absent on either side (pre-cache
    baseline JSON, or a fresh build with the fields compiled out) or when
    either run saw too few lookups for a rate comparison.
    """
    out = []
    for label, rate_field, count_fields in CACHE_RATE_CHECKS:
        if rate_field not in baseline or rate_field not in fresh:
            continue
        b_lookups = sum(baseline.get(f, 0) for f in count_fields)
        f_lookups = sum(fresh.get(f, 0) for f in count_fields)
        if min(b_lookups, f_lookups) < MIN_CACHE_SAMPLE:
            continue
        if fresh[rate_field] < baseline[rate_field] - CACHE_RATE_SLACK:
            out.append(
                f"{name}: {label} went cold (warm hit rate "
                f"{baseline[rate_field]:.1%} -> {fresh[rate_field]:.1%})"
            )
    return out


def key_of(run):
    return (
        run["family"],
        # Older bench JSONs predate the protocol field; default matches any.
        run.get("protocol", ""),
        run.get("requested_vehicles", run["vehicles"]),
        run["seed"],
        run["sim_duration_s"],
    )


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("benchmark") != "scenario_throughput":
        sys.exit(f"{path}: not a scenario_throughput document")
    return doc


def load_runs(path):
    return {key_of(r): r for r in load_doc(path)["results"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--perf-tolerance",
        type=float,
        default=0.15,
        help="max fractional events/sec regression (default: 0.15)",
    )
    args = parser.parse_args()

    baseline = load_runs(args.baseline)
    fresh = load_runs(args.fresh)

    matched = sorted(set(baseline) & set(fresh))
    if not matched:
        sys.exit(
            "bench_compare: no runs in common between "
            f"{args.baseline} and {args.fresh}"
        )
    for k in sorted(set(fresh) - set(baseline)):
        print(f"note: {k} only in fresh results (no baseline row)")

    failures = []
    for k in matched:
        b, f = baseline[k], fresh[k]
        name = "{}[{}]/{} seed={} dur={}s".format(*k)

        if f["report_digest"] != b["report_digest"]:
            failures.append(
                f"{name}: report digest {f['report_digest']} != "
                f"baseline {b['report_digest']} (PHYSICS CHANGED)"
            )
        if f["events_dispatched"] != b["events_dispatched"]:
            failures.append(
                f"{name}: events_dispatched {f['events_dispatched']} != "
                f"baseline {b['events_dispatched']}"
            )

        ratio = f["events_per_sec"] / b["events_per_sec"]
        if ratio < 1.0 - args.perf_tolerance:
            failures.append(
                f"{name}: events/sec regressed {1.0 - ratio:.1%} "
                f"({b['events_per_sec']:.0f} -> {f['events_per_sec']:.0f})"
            )

        oversize = f.get("sched_oversize_callbacks")
        if oversize is not None and f["events_dispatched"] > 0:
            rate = oversize / f["events_dispatched"]
            if rate > 1e-3:
                failures.append(
                    f"{name}: scheduler heap fallback is warm "
                    f"({oversize} oversize callbacks, {rate:.2%} of events)"
                )

        failures.extend(cache_rate_failures(name, b, f))

        print(
            f"{name}: digest ok, {f['events_per_sec']:.0f} ev/s "
            f"({ratio - 1.0:+.1%} vs baseline)"
            if not any(x.startswith(name) for x in failures)
            else f"{name}: FAILED"
        )

    if failures:
        print("\nbench_compare FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_compare: {len(matched)} run(s) ok")


if __name__ == "__main__":
    main()
