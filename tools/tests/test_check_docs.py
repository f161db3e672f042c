"""Self-tests for check_docs.py's config-key and flag round-trips.

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
import check_docs  # noqa: E402

# The shape `vanet_cli --keys` prints: a markdown table of key and default.
FAKE_KEYS = """\
| key                 | default |
|---------------------|---------|
| seed                | 1       |
| link.memo       | true    |
| link.interp     | false   |
| traffic.rate_pps    | 10      |
| map.file            |         |
| geometry            | line    |
"""


class ConfigKeyExtractionTest(unittest.TestCase):
    def test_every_table_row_is_a_key(self):
        self.assertEqual(
            check_docs.config_keys_of(FAKE_KEYS),
            {
                "seed",
                "link.memo",
                "link.interp",
                "traffic.rate_pps",
                "map.file",
                "geometry",
            },
        )

    def test_text_around_the_table_is_ignored(self):
        text = "config keys:\n" + FAKE_KEYS + "\n(6 keys)\n"
        self.assertEqual(check_docs.config_keys_of(text),
                         check_docs.config_keys_of(FAKE_KEYS))

    def test_keys_are_read_from_the_cli(self):
        with tempfile.TemporaryDirectory() as root:
            cli = pathlib.Path(root) / "fake_cli"
            cli.write_text(
                f"#!{sys.executable}\n"
                "import sys\n"
                "assert sys.argv[1:] == ['--keys'], sys.argv\n"
                f"sys.stdout.write({FAKE_KEYS!r})\n",
                encoding="utf-8",
            )
            cli.chmod(0o755)
            self.assertEqual(check_docs.cli_config_keys(str(cli)),
                             check_docs.config_keys_of(FAKE_KEYS))


class ConfigKeyRefsTest(unittest.TestCase):
    def refs(self, md_text):
        with tempfile.TemporaryDirectory() as root:
            path = pathlib.Path(root) / "doc.md"
            path.write_text(md_text, encoding="utf-8")
            return [tok for _, tok in check_docs.config_key_refs_of(path)]

    def test_plain_and_assigned_keys_are_found(self):
        self.assertEqual(
            self.refs("Set `link.memo` or `--set link.interp=true`.\n"),
            ["link.memo", "link.interp"],
        )

    def test_file_names_and_fenced_code_are_ignored(self):
        text = (
            "See `traffic.cpp` and `maps/town.csv`.\n"
            "```sh\n"
            "./cli --set link.memo=false   # fenced: out of scope\n"
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
            md = pathlib.Path(root) / "doc.md"
            md.write_text(md_text, encoding="utf-8")
            return check_docs.check_config_keys(
                [md], check_docs.config_keys_of(FAKE_KEYS)
            )

    def test_registered_keys_pass(self):
        refs, failures = self.run_check(
            "`link.memo=false` beats `traffic.rate_pps=20`.\n"
        )
        self.assertEqual(refs, 2)
        self.assertEqual(failures, [])

    def test_unknown_key_in_known_namespace_fails_with_location(self):
        refs, failures = self.run_check("first line\n`link.memmo` typo\n")
        self.assertEqual(refs, 1)
        self.assertEqual(len(failures), 1)
        self.assertIn("doc.md:2", failures[0])
        self.assertIn("link.memmo", failures[0])

    def test_foreign_namespace_is_out_of_scope(self):
        refs, failures = self.run_check("`json.dumps` is not a config key.\n")
        self.assertEqual(refs, 0)
        self.assertEqual(failures, [])

    def test_key_of_retired_namespace_fails_with_location(self):
        # No registered key starts with `etx.`: the namespace is retired,
        # so a key documented in it is stale.
        refs, failures = self.run_check("x\n\n`--set etx.window=8`\n")
        self.assertEqual(refs, 1)
        self.assertEqual(len(failures), 1)
        self.assertIn("doc.md:3", failures[0])
        self.assertIn("etx.window", failures[0])

    def test_file_names_in_retired_namespace_are_ignored(self):
        refs, failures = self.run_check("`etx.cpp` and `etx.h` are files.\n")
        self.assertEqual(refs, 0)
        self.assertEqual(failures, [])

    def test_retired_namespaces_are_a_parameter(self):
        with tempfile.TemporaryDirectory() as root:
            md = pathlib.Path(root) / "doc.md"
            md.write_text("`old.knob` and `etx.window`\n", encoding="utf-8")
            refs, failures = check_docs.check_config_keys(
                [md], check_docs.config_keys_of(FAKE_KEYS),
                retired=frozenset({"old"}))
        self.assertEqual(refs, 1)
        self.assertEqual(len(failures), 1)
        self.assertIn("old.knob", failures[0])


# The shape `vanet_cli --help` prints: usage, then one option per line.
FAKE_HELP = """\
usage: vanet_cli [run|sweep|list] [options]
  --jobs N             worker threads (default 1; 0 = all cores)
  --max-events N       simulator event budget per run (0 = off)
  --fail-fast          abort the sweep on the first failure
  --help               this message
"""


class FlagExtractionTest(unittest.TestCase):
    def test_every_option_in_the_help_is_a_flag(self):
        self.assertEqual(
            check_docs.flags_of(FAKE_HELP),
            {"--jobs", "--max-events", "--fail-fast", "--help"},
        )

    def test_flags_are_read_from_the_cli(self):
        with tempfile.TemporaryDirectory() as root:
            cli = pathlib.Path(root) / "fake_cli"
            cli.write_text(
                f"#!{sys.executable}\n"
                "import sys\n"
                "assert sys.argv[1:] == ['--help'], sys.argv\n"
                f"sys.stdout.write({FAKE_HELP!r})\n",
                encoding="utf-8",
            )
            cli.chmod(0o755)
            self.assertEqual(check_docs.cli_flags(str(cli)),
                             check_docs.flags_of(FAKE_HELP))


class FlagRefsTest(unittest.TestCase):
    def refs(self, md_text):
        with tempfile.TemporaryDirectory() as root:
            path = pathlib.Path(root) / "doc.md"
            path.write_text(md_text, encoding="utf-8")
            return [flag for _, flag in check_docs.flag_refs_of(path)]

    def test_bare_and_invoked_flags_are_found(self):
        self.assertEqual(
            self.refs("Use `--jobs 4`, `--format=csv` or "
                      "`./build/vanet_cli sweep --fail-fast --seeds 2`.\n"),
            ["--jobs", "--format", "--fail-fast", "--seeds"],
        )

    def test_other_programs_and_fenced_code_are_ignored(self):
        text = (
            "Run `perfbench/run.py --pair a b` or "
            "`bench_scenario_throughput --smoke`.\n"
            "```sh\n"
            "vanet_cli --retries 3   # fenced: out of scope\n"
            "```\n"
        )
        self.assertEqual(self.refs(text), [])

    def test_short_options_and_prose_are_ignored(self):
        self.assertEqual(self.refs("`vanet_cli --keys | wc -l` and `a--b`\n"),
                         ["--keys"])


class FlagCheckTest(unittest.TestCase):
    def run_check(self, md_text):
        with tempfile.TemporaryDirectory() as root:
            md = pathlib.Path(root) / "doc.md"
            md.write_text(md_text, encoding="utf-8")
            return check_docs.check_flags([md], check_docs.flags_of(FAKE_HELP))

    def test_documented_flags_pass(self):
        refs, failures = self.run_check(
            "`--jobs N` and `vanet_cli --max-events 700 --fail-fast`.\n"
        )
        self.assertEqual(refs, 3)
        self.assertEqual(failures, [])

    def test_removed_flag_fails_with_location(self):
        refs, failures = self.run_check(
            "first line\n`--timeout S` and `--retries N` re-run failures.\n"
        )
        self.assertEqual(refs, 2)
        self.assertEqual(len(failures), 2)
        self.assertIn("doc.md:2", failures[0])
        self.assertIn("--timeout", failures[0])
        self.assertIn("--retries", failures[1])


if __name__ == "__main__":
    unittest.main()
