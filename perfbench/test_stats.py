#!/usr/bin/env python3
"""Self-tests of the benchmark's own statistics.

    python3 perfbench/test_stats.py
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


class PercentileSelection(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # p99 of n leaves n - ceil(0.99 n) samples beyond it.
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_selected_percentile_really_has_ten_beyond(self):
        for n in range(1, 3000, 7):
            p = stats.tail_percentile(n)
            if p is None:
                continue
            xs = list(range(n))
            cut = stats.percentile(xs, p)
            self.assertGreaterEqual(sum(1 for x in xs if x > cut), 10, n)

    def test_nearest_rank(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(xs, 50), 3)
        self.assertEqual(stats.percentile(xs, 100), 5)
        self.assertEqual(stats.percentile(xs, 1), 1)
        self.assertEqual(stats.percentile(list(range(1, 101)), 99), 99)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q1, q2, q3))
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)


class Worsening(unittest.TestCase):
    def test_direction_follows_better(self):
        self.assertAlmostEqual(stats.worsening(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(stats.worsening(10.0, 12.0, "higher"), -0.2)
        self.assertAlmostEqual(stats.worsening(10.0, 8.0, "higher"), 0.2)


class Spearman(unittest.TestCase):
    def test_monotone(self):
        self.assertAlmostEqual(stats.spearman([1, 2, 3, 4], [10, 20, 30, 45]),
                               1.0)
        self.assertAlmostEqual(stats.spearman([1, 2, 3, 4], [4, 3, 2, 1]),
                               -1.0)

    def test_ties_get_average_ranks(self):
        self.assertEqual(stats._ranks([10, 20, 20, 30]), [1, 2.5, 2.5, 4])
        self.assertEqual(stats._ranks([7, 7, 7]), [2, 2, 2])
        # Pearson over the average ranks, worked by hand:
        # x ranks [1, 2.5, 2.5, 4], y ranks [1, 2, 3, 4]
        # sxy = 4.5, sxx = 4.5, syy = 5 -> 4.5 / sqrt(22.5)
        self.assertAlmostEqual(stats.spearman([1, 2, 2, 3], [1, 2, 3, 4]),
                               4.5 / math.sqrt(22.5))

    def test_constant_series_has_no_correlation(self):
        self.assertEqual(stats.spearman([1, 1, 1], [1, 2, 3]), 0.0)

    def test_rejects_mismatched_lengths(self):
        with self.assertRaises(ValueError):
            stats.spearman([1, 2], [1])


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        # Request 2 was due at 10 but could only be sent at 14, when
        # request 1's reply freed the connection: its latency counts the
        # 4 ms it waited, not just its 1 ms round trip.
        records = [(0.0, 0.0, 14.0), (10.0, 14.0, 15.0), (20.0, 20.5, 21.0)]
        latencies, lateness = stats.open_loop(records)
        self.assertEqual(latencies, [14.0, 5.0, 1.0])
        self.assertEqual(lateness, [0.0, 4.0, 0.5])

    def test_early_send_is_not_negative_lateness(self):
        _, lateness = stats.open_loop([(5.0, 4.9, 6.0)])
        self.assertEqual(lateness, [0.0])

    def test_fields_after_done_are_ignored(self):
        latencies, _ = stats.open_loop([(0.0, 0.0, 2.0, 1.0)])
        self.assertEqual(latencies, [2.0])


class MixMedian(unittest.TestCase):
    def test_group_medians_weighted_by_share(self):
        # Nine hits at ~1 ms and one miss at 20 ms: 0.9 * 1 + 0.1 * 20.
        groups = {"hit": [1.0, 0.9, 1.1, 1.0, 1.0, 1.2, 0.8, 1.0, 1.0],
                  "miss": [20.0]}
        self.assertAlmostEqual(stats.mix_median(groups), 2.9)

    def test_outlier_moves_only_its_group_median(self):
        a = {"x": [1.0, 1.0, 1.0], "y": [10.0, 10.0, 10.0]}
        b = {"x": [1.0, 1.0, 500.0], "y": [10.0, 10.0, 10.0]}
        self.assertAlmostEqual(stats.mix_median(a), stats.mix_median(b))

    def test_rejects_no_samples(self):
        with self.assertRaises(ValueError):
            stats.mix_median({"x": []})


class ClosedLoop(unittest.TestCase):
    def test_rates_sum_over_connections_of_a_slice(self):
        # Slice 1: one connection answered 100 in 0.5 s, the other 90 in
        # 0.45 s (its last reply came earlier): 200 + 200 per second.
        rates = stats.closed_loop_rates([(1, 100, 0.5), (1, 90, 0.45),
                                         (3, 50, 0.5)])
        self.assertAlmostEqual(rates[1], 400.0)
        self.assertAlmostEqual(rates[3], 100.0)

    def test_overrun_counts_with_its_time(self):
        # A request that finishes 0.05 s after a 0.5 s slice adds one
        # answer and 0.05 s, not one answer for free.
        rates = stats.closed_loop_rates([(0, 11, 0.55)])
        self.assertAlmostEqual(rates[0], 20.0)

    def test_rejects_empty_window(self):
        with self.assertRaises(ValueError):
            stats.closed_loop_rates([(0, 0, 0.0)])


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # op: 0..100 with children a: 10..40 and b: 30..60 (overlapping,
        # covered once: 10..60) and c: 90..120 (clipped to 90..100);
        # a has a grandchild 15..25.
        spans = [
            (1, 0, 7, "op", 0, 100),
            (2, 1, 7, "a", 10, 40),
            (3, 1, 7, "b", 30, 60),
            (4, 1, 7, "c", 90, 120),
            (5, 2, 7, "a.inner", 15, 25),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 50 - 10)
        self.assertEqual(selfs[2], 30 - 10)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[5], 10)

    def test_layer_table_totals(self):
        spans = [(1, 0, 1, "engine", 0, 10), (2, 1, 1, "check", 8, 10),
                 (3, 0, 2, "engine", 20, 26)]
        table = stats.layer_table(spans)
        self.assertEqual(table["engine"]["count"], 2)
        self.assertEqual(table["engine"]["total_ns"], 16)
        self.assertEqual(table["engine"]["self_ns"], 14)
        self.assertEqual(table["engine"]["median_ns"], 8)
        self.assertEqual(table["check"]["self_ns"], 2)


if __name__ == "__main__":
    unittest.main()
