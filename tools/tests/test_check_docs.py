"""Self-tests for check_docs.py (config-key round-trip) and the
bench_compare.py warm-cache check.

Fixture-driven like test_linters.py; runs under the stdlib runner:

    python3 -m unittest discover -s tools/tests -v
"""

import os
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))
import bench_compare  # noqa: E402
import check_docs  # noqa: E402

FAKE_CONFIG_KV = """
  num("seed", REF(seed));
  num("lifetime.memo", REF(lifetime_memo));
  num("lifetime.interp", REF(lifetime_interp));
  num("traffic.rate_pps", REF(traffic.rate_pps));
  seconds("traffic.start_s", REF(traffic.start_s));
  fields.push_back(string_field("map.file", REF(map.file)));
  fields.push_back(enum_field("zone.geometry", REF(zone_geometry), geometry));
  fields.push_back(simtime_field("hello.interval_s", REF(hello.interval)));
  fields.push_back(checked_field(
      "etx.window", REF(etx.window),
      +[](int v) { return v >= 1 && v <= 64; }, "an integer in [1, 64]"));
  {
    Field f;
    f.key = "map.source";
  }
"""


class ConfigKeyExtractionTest(unittest.TestCase):
    def keys(self, text=FAKE_CONFIG_KV):
        with tempfile.TemporaryDirectory() as root:
            path = pathlib.Path(root) / "config_kv.cpp"
            path.write_text(text, encoding="utf-8")
            return check_docs.config_keys_of(path)

    def test_all_registration_forms_extracted(self):
        self.assertEqual(
            self.keys(),
            {
                "seed",
                "lifetime.memo",
                "lifetime.interp",
                "traffic.rate_pps",
                "traffic.start_s",
                "map.file",
                "zone.geometry",
                "hello.interval_s",
                "etx.window",
                "map.source",
            },
        )

    def test_real_registry_contains_enum_and_numeric_keys(self):
        # Round-trip against the actual repo file: keys registered through
        # enum_field and num must both be extracted.
        real = pathlib.Path(__file__).resolve().parents[2] / (
            "src/sim/config_kv.cpp"
        )
        keys = check_docs.config_keys_of(real)
        self.assertIn("gvgrid.geometry", keys)
        self.assertIn("phy.model", keys)
        self.assertIn("traffic.rate_pps", keys)
        self.assertNotIn("lifetime.memo", keys)
        self.assertGreater(len(keys), 40)


class ConfigKeyRefsTest(unittest.TestCase):
    def refs(self, md_text):
        with tempfile.TemporaryDirectory() as root:
            path = pathlib.Path(root) / "doc.md"
            path.write_text(md_text, encoding="utf-8")
            return [tok for _, tok in check_docs.config_key_refs_of(path)]

    def test_plain_and_assigned_keys_are_found(self):
        self.assertEqual(
            self.refs("Set `lifetime.memo` or `--set lifetime.interp=true`.\n"),
            ["lifetime.memo", "lifetime.interp"],
        )

    def test_file_names_and_fenced_code_are_ignored(self):
        text = (
            "See `traffic.cpp` and `maps/town.csv`.\n"
            "```sh\n"
            "./cli --set lifetime.memo=false   # fenced: out of scope\n"
            "```\n"
        )
        self.assertEqual(self.refs(text), [])

    def test_non_key_shapes_are_ignored(self):
        self.assertEqual(
            self.refs("`highway.*` and `std::sort` and `Results[0].pdr`\n"),
            [],
        )


class ConfigKeyCheckTest(unittest.TestCase):
    def run_check(self, md_text):
        with tempfile.TemporaryDirectory() as root:
            kv = pathlib.Path(root) / "config_kv.cpp"
            kv.write_text(FAKE_CONFIG_KV, encoding="utf-8")
            md = pathlib.Path(root) / "doc.md"
            md.write_text(md_text, encoding="utf-8")
            return check_docs.check_config_keys([md], kv)

    def test_registered_keys_pass(self):
        refs, failures = self.run_check(
            "`lifetime.memo=false` beats `zone.geometry=route`.\n"
        )
        self.assertEqual(refs, 2)
        self.assertEqual(failures, [])

    def test_unknown_key_in_known_namespace_fails_with_location(self):
        refs, failures = self.run_check("first line\n`lifetime.memmo` typo\n")
        self.assertEqual(refs, 1)
        self.assertEqual(len(failures), 1)
        self.assertIn("doc.md:2", failures[0])
        self.assertIn("lifetime.memmo", failures[0])

    def test_foreign_namespace_is_out_of_scope(self):
        refs, failures = self.run_check("`json.dumps` is not a config key.\n")
        self.assertEqual(refs, 0)
        self.assertEqual(failures, [])


def run_row(**overrides):
    row = {
        "lifetime_memo_hits": 90_000,
        "lifetime_memo_misses": 10_000,
        "lifetime_memo_hit_rate": 0.9,
        "seg_snapshot_queries": 50_000,
        "seg_snapshot_hit_rate": 0.8,
    }
    row.update(overrides)
    return row


class BenchCacheRateTest(unittest.TestCase):
    def test_warm_rates_pass(self):
        self.assertEqual(
            bench_compare.cache_rate_failures("run", run_row(), run_row()), []
        )

    def test_small_drop_within_slack_passes(self):
        fresh = run_row(lifetime_memo_hit_rate=0.86)
        self.assertEqual(
            bench_compare.cache_rate_failures("run", run_row(), fresh), []
        )

    def test_cold_memo_fails(self):
        fresh = run_row(lifetime_memo_hit_rate=0.5)
        failures = bench_compare.cache_rate_failures("run", run_row(), fresh)
        self.assertEqual(len(failures), 1)
        self.assertIn("lifetime memo", failures[0])
        self.assertIn("90.0% -> 50.0%", failures[0])

    def test_cold_snapshot_fails(self):
        fresh = run_row(seg_snapshot_hit_rate=0.1)
        failures = bench_compare.cache_rate_failures("run", run_row(), fresh)
        self.assertEqual(len(failures), 1)
        self.assertIn("segment snapshot", failures[0])

    def test_missing_counters_skip_the_check(self):
        # Pre-cache baseline JSON has no cache fields at all.
        failures = bench_compare.cache_rate_failures(
            "run", {"events_per_sec": 1.0}, run_row(seg_snapshot_hit_rate=0.0)
        )
        self.assertEqual(failures, [])

    def test_sparse_lookups_skip_the_check(self):
        baseline = run_row()
        fresh = run_row(
            lifetime_memo_hits=5,
            lifetime_memo_misses=5,
            lifetime_memo_hit_rate=0.0,
            seg_snapshot_queries=10,
            seg_snapshot_hit_rate=0.0,
        )
        self.assertEqual(
            bench_compare.cache_rate_failures("run", baseline, fresh), []
        )


if __name__ == "__main__":
    unittest.main()
