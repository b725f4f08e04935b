"""The benchmark's own tests: the percentile helper, seed handling, and the
agreement between run.py and BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The seed tests build the workload runner (as run.py does) on first use.
"""

import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_value_and_counts(self):
        samples = list(range(1, 101))
        random.Random(3).shuffle(samples)
        p50 = stats.percentile(samples, 50)
        self.assertEqual((p50.value, p50.count, p50.beyond), (50, 100, 50))
        p90 = stats.percentile(samples, 90)
        self.assertEqual((p90.value, p90.count, p90.beyond), (90, 100, 10))

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(stats.PercentileRefused):
            stats.percentile(range(1, 100), 90)  # rank 90 of 99: 9 beyond
        with self.assertRaises(stats.PercentileRefused):
            stats.percentile([], 50)
        self.assertIsNone(stats.try_percentile(range(40), 90))
        self.assertEqual(stats.try_percentile(range(40), 75).beyond, 10)

    def test_rejects_out_of_range_percentile(self):
        with self.assertRaises(ValueError):
            stats.percentile(range(100), 100)

    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([10.0] * 5), 0.0)
        self.assertGreater(stats.quartile_spread([8, 9, 10, 11, 12]), 0.0)


class SeedTest(unittest.TestCase):
    """Same seed -> byte-identical rendered inputs; another seed -> others."""

    @classmethod
    def setUpClass(cls):
        cls.runner = run.build(os.path.join(ROOT, ".bench_build", "perfbench"))
        if cls.runner is None:
            raise unittest.SkipTest("workload runner did not build")

    def digest(self, workload, seed):
        return subprocess.check_output(
            [self.runner, "--digest", "--workload", workload,
             "--seed", str(seed)], text=True).strip()

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 7),
                                 self.digest(workload, 7))

    def test_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.digest(workload, 7),
                                    self.digest(workload, 8))


class ContractTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics and workloads run.py prints."""

    def setUp(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        with open(path) as f:
            self.spec = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_metric_names_and_units(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            with self.subTest(section=key):
                self.assertEqual(
                    {m["name"]: m["unit"] for m in self.spec[key]}, table)


if __name__ == "__main__":
    unittest.main()
