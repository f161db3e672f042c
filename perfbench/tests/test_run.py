"""Self-tests of perfbench/run.py (stdlib unittest, no simulator build).

Run from the repo root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def driver_output(**overrides):
    """A plausible untraced driver output for one urban-aodv input."""
    out = {"workload": "urban-aodv", "seed": 1000, "digest": "0123456789abcdef",
           "runs": 1, "setup_s": 0.002, "run_s": 1.0, "busy_s": 1.0,
           "engine_wall_s": 1.01, "workers": 1, "events": 250000, "originated": 160, "delivered": 40,
           "sched_slab_allocs": 5, "sched_peak_pending": 1200,
           "peak_rss_mb": 16.0}
    out.update(overrides)
    return out


def traced_output():
    events = {k: {"count": 10, "total_s": 0.1, "child_s": 0.02}
              for k in ("tick", "tx_end", "tx_start", "originate", "send",
                        "timer")}
    span = {"count": 4, "total_s": 0.02}
    net = {"frames_sent": 10, "frames_dropped_queue": 0,
           "receptions_ok": 30, "receptions_collided": 8,
           "receptions_faded": 2, "unicast_retries": 1, "unicast_failures": 1,
           "bytes_sent": 3000, "data_frames_sent": 5}
    trace = {"events": events, "hello_rx": span, "routing_rx": span,
             "routing_fail": span, "hello_rx_bytes": 128.0,
             "event_us_p50": 1.0, "event_us_p99": 30.0, "delay_samples": 3,
             "delay_ms_p50": 8.0, "delay_ms_p95": 40.0, "delay_ms_p99": 50.0,
             "delay_ms_p95_hint": 45.0, "run_s": 0.62, "map_build_s": 1e-5,
             "mobility_populate_s": 2e-4, "net": net, "discoveries": 3,
             "route_breaks": 1, "dropped_no_route": 2}
    return driver_output(run_s=1.2, busy_s=1.2, trace=trace)


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(run.median(values), 4.0)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, q3))
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / 4.0)

    def test_single_value_has_zero_spread(self):
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0))
        self.assertEqual(run.relative_spread([3.0]), 0.0)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50.0)
        self.assertEqual(run.highest_percentile(39), 50.0)
        self.assertEqual(run.highest_percentile(40), 75.0)
        self.assertEqual(run.highest_percentile(100), 90.0)
        self.assertEqual(run.highest_percentile(200), 95.0)
        self.assertEqual(run.highest_percentile(999), 95.0)
        self.assertEqual(run.highest_percentile(1000), 99.0)
        self.assertEqual(run.highest_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50), 3.0)
        self.assertAlmostEqual(run.percentile([0.0, 10.0], 75), 7.5)


class Verdicts(unittest.TestCase):
    tight = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(run.worsening(1.0, 1.3, "lower"), 0.3)
        self.assertAlmostEqual(run.worsening(1.0, 0.7, "higher"), 0.3)
        self.assertAlmostEqual(run.worsening(1.0, 1.3, "higher"), -0.3)

    def test_same_numbers_are_ok(self):
        self.assertEqual(run.verdict(self.tight, self.tight, "lower", 0.1), "ok")

    def test_worse_median_beyond_bound_regresses(self):
        slower = [v * 1.3 for v in self.tight]
        self.assertEqual(run.verdict(self.tight, slower, "lower", 0.2),
                         "regressed")
        self.assertEqual(run.verdict(slower, self.tight, "higher", 0.2),
                         "regressed")

    def test_worse_within_bound_is_ok(self):
        slower = [v * 1.1 for v in self.tight]
        self.assertEqual(run.verdict(self.tight, slower, "lower", 0.2), "ok")

    def test_wide_baseline_is_unresolved(self):
        wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        self.assertEqual(run.verdict(wide, wide, "lower", 0.1), "unresolved")

    def test_wide_baseline_beaten_by_every_run_is_ok(self):
        wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        faster = [0.5] * 10
        self.assertEqual(run.verdict(wide, faster, "lower", 0.1), "ok")

    def test_win_fraction_ignores_ties(self):
        a = [1.0, 1.0, 1.0, 1.0]
        b = [0.9, 1.0, 1.1, 0.8]
        self.assertEqual(run.win_fraction(a, b, "lower"), 0.5)
        self.assertEqual(run.win_fraction(a, b, "higher"), 0.25)


class Accounting(unittest.TestCase):
    def test_errors_and_rejections_count_as_failed(self):
        r = run.Run()
        self.assertIsNotNone(r.record(driver_output(), None))
        self.assertIsNone(r.record(None, "exit 1"))
        r.reject("digest differs")
        self.assertEqual((r.attempted, r.failed), (2, 2))
        self.assertFalse(r.correct)

    def test_result_line_reports_every_end_to_end_metric(self):
        r = run.Run()
        r.reps = [r.record(driver_output(run_s=t), None) for t in (1.0, 2.0)]
        line = json.loads(run.result_line(r, False, CONFIG))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (2, 0))
        names = [m["name"] for m in CONFIG["end_to_end"]]
        self.assertEqual(list(line["metrics"]), names)
        self.assertEqual(line["metrics"]["run_s"],
                         {"value": 1.5, "unit": "s"})

    def test_setup_s_is_the_mean_over_inputs(self):
        # Fast and slow clusters: the mean follows the share of slow inputs
        # where a median would jump to one cluster.
        reps = [driver_output(setup_s=s) for s in (0.001, 0.001, 0.001, 0.002)]
        self.assertAlmostEqual(run.end_to_end_metrics(reps)["setup_s"],
                               0.00125)

    def test_result_line_without_outputs_is_not_correct(self):
        r = run.Run()
        r.record(None, "timed out")
        line = json.loads(run.result_line(r, False, CONFIG))
        self.assertFalse(line["correct"])
        self.assertEqual(line["metrics"], {})

    def test_per_layer_names_match_benchmark_json(self):
        r = run.Run()
        r.pairs = [(traced_output(), driver_output())]
        line = json.loads(run.result_line(r, True, CONFIG))
        self.assertTrue(line["correct"])
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in CONFIG["per_layer"]])
        overhead = line["metrics"]["trace.overhead"]["value"]
        self.assertAlmostEqual(overhead, 0.2)

    def test_sanity_rejects_impossible_outputs(self):
        self.assertIsNone(run.sanity_problem(driver_output(), "urban-aodv",
                                             False))
        self.assertIsNotNone(run.sanity_problem(
            driver_output(delivered=500), "urban-aodv", False))
        self.assertIsNotNone(run.sanity_problem(
            driver_output(runs=3), "urban-aodv", False))
        self.assertIsNotNone(run.sanity_problem(
            driver_output(), "paper-sweep", False))

    def test_repeat_digest_mismatch_is_a_failure(self):
        # A fake driver whose digest changes on every call: the warm-up and
        # the first timed call of input 0 disagree.
        with tempfile.TemporaryDirectory() as tmp:
            counter = Path(tmp) / "calls"
            fake = Path(tmp) / "driver"
            out = driver_output()
            fake.write_text(
                "#!" + sys.executable + "\n"
                "import json, pathlib\n"
                f"c = pathlib.Path({str(counter)!r})\n"
                "n = int(c.read_text()) if c.exists() else 0\n"
                "c.write_text(str(n + 1))\n"
                f"out = {out!r}\n"
                "out['digest'] = '%016x' % n\n"
                "print(json.dumps(out))\n")
            fake.chmod(0o755)
            r = run.measure(fake, "urban-aodv", 7, 0.0, False)
        self.assertEqual(r.attempted, 1 + run.MIN_REPS)
        self.assertEqual(r.failed, 1)
        self.assertFalse(r.correct)


class ConfigValidation(unittest.TestCase):
    def test_committed_config_is_valid(self):
        self.assertEqual(run.validate_config(CONFIG), [])

    def mutated(self, fn):
        cfg = json.loads(json.dumps(CONFIG))
        fn(cfg)
        return run.validate_config(cfg)

    def test_names_must_match_regex(self):
        for bad in ("", "-lead", "a b", "x" * 65, "ok/no"):
            problems = self.mutated(
                lambda c, n=bad: c["per_layer"][0].update(name=n))
            self.assertTrue(any("bad name" in p for p in problems), bad)

    def test_metric_caps(self):
        extra = {"name": "m", "unit": "s", "better": "lower", "bound": 0.1}
        problems = self.mutated(lambda c: c["end_to_end"].extend(
            dict(extra, name=f"e{i}") for i in range(17)))
        self.assertTrue(any("end-to-end" in p for p in problems))
        problems = self.mutated(lambda c: c["per_layer"].extend(
            dict(extra, name=f"l{i}") for i in range(129)))
        self.assertTrue(any("per-layer" in p for p in problems))

    def test_setup_s_required_and_bounds_capped(self):
        problems = self.mutated(lambda c: c.update(end_to_end=[
            m for m in c["end_to_end"] if m["name"] != "setup_s"]))
        self.assertTrue(any("setup_s" in p for p in problems))
        problems = self.mutated(lambda c: c["end_to_end"][0].update(bound=0.3))
        self.assertTrue(any("bound" in p for p in problems))

    def test_duplicate_names_rejected(self):
        problems = self.mutated(lambda c: c["per_layer"].append(
            dict(c["per_layer"][0])))
        self.assertTrue(any("twice" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
