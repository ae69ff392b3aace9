"""Fixtures for perfbench/stats.py, computed by hand.

Run with: python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = [15, 20, 35, 40, 50]
        # ranks ceil(p/100 * 5): p30 -> 2, p40 -> 2, p50 -> 3, p100 -> 5
        self.assertEqual(stats.percentile(xs, 30), 20)
        self.assertEqual(stats.percentile(xs, 40), 20)
        self.assertEqual(stats.percentile(xs, 50), 35)
        self.assertEqual(stats.percentile(xs, 100), 50)
        self.assertEqual(stats.percentile(list(reversed(xs)), 50), 35)

    def test_beyond(self):
        # 200 samples: p95 is rank 190, so 10 lie above it
        self.assertEqual(stats.beyond(200, 95), 10)
        self.assertEqual(stats.beyond(199, 95), 9)  # rank ceil(189.05) = 190
        self.assertEqual(stats.beyond(20, 50), 10)

    def test_tail_rule(self):
        # highest percentile with at least 10 samples beyond it
        self.assertIsNone(stats.tail_percentile(19))  # median leaves 9
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)  # p75 rank 30, 10 beyond
        self.assertEqual(stats.tail_percentile(100), 90.0)  # p90 leaves 10
        self.assertEqual(stats.tail_percentile(199), 90.0)  # p95 rank 190 leaves 9
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)  # rank 9990

    def test_rank_rounding(self):
        self.assertEqual(stats.rank(10000, 99.9), 9990)
        self.assertEqual(stats.rank(3, 50), 2)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class Quartiles(unittest.TestCase):
    def test_exclusive_method(self):
        # statistics.quantiles default (exclusive): positions (n+1)p
        # n = 10, values 1..10: q1 at 2.75 -> 2.75, q2 5.5, q3 at 8.25 -> 8.25
        q1, q2, q3 = stats.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread(self):
        # (8.25 - 2.75) / 5.5 = 1.0
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), 1.0)
        # values 98, 99, 100, 101, 102: q1 98.5, q2 100, q3 101.5 -> 0.03
        self.assertAlmostEqual(stats.spread([102, 98, 100, 101, 99]), 0.03)


class FailFrac(unittest.TestCase):
    def test_counts_each_op_once(self):
        t = stats.Tally()
        t.record([])
        t.record(["exit 2", "error above bound"])
        t.record([])
        t.record(["refused"])
        self.assertEqual(t.attempted, 4)
        self.assertEqual(t.failed, 2)
        self.assertAlmostEqual(t.fail_frac(), 0.5)
        self.assertEqual(len(t.reasons), 3)

    def test_nothing_attempted(self):
        self.assertEqual(stats.Tally().fail_frac(), 0.0)


if __name__ == "__main__":
    unittest.main()
