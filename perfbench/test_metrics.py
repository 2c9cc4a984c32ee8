"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import metrics as m  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(m.percentile(values, 50), 50)
        self.assertEqual(m.percentile(values, 99), 99)
        self.assertEqual(m.percentile(values, 100), 100)
        self.assertEqual(m.percentile([7], 99), 7)
        self.assertEqual(m.percentile([3, 1, 2], 50), 2)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(m.samples_beyond(1000, 99.0), 10)
        self.assertEqual(m.tail_percentile(1000), 99.0)
        self.assertEqual(m.tail_percentile(999), 90.0)
        self.assertEqual(m.tail_percentile(10000), 99.9)
        self.assertEqual(m.tail_percentile(9999), 99.0)
        self.assertEqual(m.tail_percentile(100), 90.0)
        self.assertEqual(m.tail_percentile(20), 50.0)
        self.assertIsNone(m.tail_percentile(19))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            m.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [("step", -1, 0, 100),
                 ("replay", 0, 0, 20),
                 ("detector", 0, 20, 70),
                 ("service", 0, 75, 100)]
        self.assertEqual(m.self_times(spans), [5, 20, 50, 25])

    def test_overlap_and_overhang_count_once(self):
        # Children overlapping each other, and one running past the parent.
        spans = [("step", -1, 10, 110),
                 ("a", 0, 0, 40),
                 ("b", 0, 30, 60),
                 ("c", 0, 100, 150)]
        self.assertEqual(m.self_times(spans)[0], 100 - 50 - 10)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [("step", -1, 0, 100),
                 ("tick", 0, 0, 80),
                 ("inner", 1, 10, 30)]
        self.assertEqual(m.self_times(spans), [20, 60, 20])
        totals = m.layer_totals(spans)
        self.assertEqual(totals["step"], {"count": 1, "total": 100,
                                          "self": 20})
        self.assertEqual(totals["tick"]["self"], 60)


class QualityTest(unittest.TestCase):
    def test_uniform_histogram_has_zero_kl(self):
        self.assertAlmostEqual(m.kl_from_uniform([5, 5, 5, 5]), 0.0)

    def test_point_mass_has_log_n(self):
        self.assertAlmostEqual(m.kl_from_uniform([0, 0, 9, 0]), math.log(4))

    def test_hand_computed(self):
        # p = (1/2, 1/4, 1/4) against 1/3 each.
        expected = 0.5 * math.log(1.5) + 2 * 0.25 * math.log(0.75)
        self.assertAlmostEqual(m.kl_from_uniform([2, 1, 1]), expected)

    def test_pollution(self):
        # Outputs: 30 correct over three ids, 10 on forged ids.
        correct = [10, 15, 5]
        malicious = 10
        self.assertAlmostEqual(
            m.pollution(malicious, sum(correct) + malicious), 0.25)
        with self.assertRaises(ValueError):
            m.pollution(0, 0)
        with self.assertRaises(ValueError):
            m.kl_from_uniform([0, 0])


FP = {"nproc": 4, "sketch_kernel": "avx512", "compiler": "GNU 12.2.0",
      "build_type": "Release", "cpu_model": "Xeon"}
BOUNDS = {"ids_per_s": {"better": "higher", "bound": 0.1},
          "step_p50_ms": {"better": "lower", "bound": 0.1}}


def result(ids_per_s, p50, **fingerprint):
    return {"workload": "w", "trace": 0, "fingerprint": dict(FP, **fingerprint),
            "metrics": {"ids_per_s": {"value": ids_per_s, "unit": "1/s"},
                        "step_p50_ms": {"value": p50, "unit": "ms"}}}


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        rows = compare.compare([result(100, 1.0)], [result(80, 1.05)], BOUNDS)
        self.assertEqual(rows[0]["verdict"], "regression")
        self.assertEqual(rows[1]["verdict"], "same")
        rows = compare.compare([result(100, 1.0)], [result(120, 0.5)], BOUNDS)
        self.assertEqual([r["verdict"] for r in rows],
                         ["improvement", "improvement"])

    def test_fingerprint_mismatch_gives_no_verdict(self):
        self.assertEqual(m.fingerprint_diff(FP, dict(FP, nproc=8)), ["nproc"])
        rows = compare.compare([result(100, 1.0)],
                               [result(50, 2.0, sketch_kernel="scalar")],
                               BOUNDS)
        self.assertTrue(rows)
        for row in rows:
            self.assertIsNone(row["verdict"])
            self.assertIn("sketch_kernel", row["note"])
            self.assertIsNotNone(row["base"])
            self.assertIsNotNone(row["new"])

    def test_medians_over_runs(self):
        rows = compare.compare([result(90, 1), result(100, 1), result(200, 1)],
                               [result(100, 1)], BOUNDS)
        self.assertEqual(rows[0]["base"], 100)
        self.assertEqual(rows[0]["verdict"], "same")


if __name__ == "__main__":
    unittest.main()
