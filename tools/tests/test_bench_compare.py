"""Self-tests for bench_compare's run-matching key (the bench-JSON
regression gate). Runs under the stdlib runner (no pytest dependency in the
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


if __name__ == "__main__":
    unittest.main()
