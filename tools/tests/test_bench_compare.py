"""Self-tests for bench_compare's run-matching key and warm-cache check (the
bench-JSON regression gate). Runs under the stdlib runner (no pytest dependency in the
container/CI image):

    python3 -m unittest discover -s tools/tests -v
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))
import bench_compare  # noqa: E402


class KeyOfTest(unittest.TestCase):
    def test_older_rows_match_current_rows(self):
        # Older bench JSONs lack the protocol field, and the committed ones
        # still carry per-row `shards`/`threads` fields; neither may split a
        # row from its current counterpart.
        current = {
            "family": "manhattan",
            "protocol": "",
            "vehicles": 100,
            "seed": 1,
            "sim_duration_s": 10,
        }
        pre_protocol = {k: v for k, v in current.items() if k != "protocol"}
        with_shards = dict(current, shards=1, threads=1)
        key = bench_compare.key_of(current)
        self.assertEqual(bench_compare.key_of(pre_protocol), key)
        self.assertEqual(bench_compare.key_of(with_shards), key)


def run_row(**overrides):
    row = {"seg_snapshot_queries": 50_000, "seg_snapshot_hit_rate": 0.8}
    row.update(overrides)
    return row


class BenchCacheRateTest(unittest.TestCase):
    def test_warm_rates_pass(self):
        self.assertEqual(
            bench_compare.cache_rate_failures("run", run_row(), run_row()), []
        )

    def test_small_drop_within_slack_passes(self):
        fresh = run_row(seg_snapshot_hit_rate=0.76)
        self.assertEqual(
            bench_compare.cache_rate_failures("run", run_row(), fresh), []
        )

    def test_cold_snapshot_fails(self):
        fresh = run_row(seg_snapshot_hit_rate=0.1)
        failures = bench_compare.cache_rate_failures("run", run_row(), fresh)
        self.assertEqual(len(failures), 1)
        self.assertIn("segment snapshot", failures[0])
        self.assertIn("80.0% -> 10.0%", failures[0])

    def test_missing_counters_skip_the_check(self):
        # Pre-cache baseline JSON has no cache fields at all.
        failures = bench_compare.cache_rate_failures(
            "run", {"events_per_sec": 1.0}, run_row(seg_snapshot_hit_rate=0.0)
        )
        self.assertEqual(failures, [])

    def test_sparse_lookups_skip_the_check(self):
        fresh = run_row(seg_snapshot_queries=10, seg_snapshot_hit_rate=0.0)
        self.assertEqual(
            bench_compare.cache_rate_failures("run", run_row(), fresh), []
        )

    def test_memo_fields_of_older_baselines_are_ignored(self):
        # Committed baselines still carry the removed lifetime memo's rate.
        baseline = run_row(lifetime_memo_hits=90_000,
                           lifetime_memo_misses=10_000,
                           lifetime_memo_hit_rate=0.9)
        self.assertEqual(
            bench_compare.cache_rate_failures("run", baseline, run_row()), []
        )


if __name__ == "__main__":
    unittest.main()
