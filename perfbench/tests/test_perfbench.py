"""Self-tests of the QTLS benchmark.

  python3 -m unittest discover -s perfbench/tests -v

Builds qtls_bench like run.py does, then runs short seeded measurements.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from qbench import harness, metrics, stats  # noqa: E402

SEED = 7


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([5.0], 90), 5.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond_a_percentile(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(99, 90), 9)
        self.assertEqual(stats.beyond(0, 90), 0)
        self.assertTrue(stats.tail_supported(100, 90))
        self.assertFalse(stats.tail_supported(99, 90))
        self.assertTrue(stats.tail_supported(20, 50))

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])


class QuietWindowTest(unittest.TestCase):
    """The metrics count only the slices of the window with the least steal."""

    SLICE_NS = 250_000_000
    STEAL = [5, 0, 9, 1, 7, 3, 8, 2]  # ticks of 100 per 250-ms slice

    def load(self):
        samples = [[0, 0, 0, 0]]
        for i, steal in enumerate(self.STEAL):
            t, s, n, c = samples[-1]
            samples.append([t + self.SLICE_NS, s + steal, n + 100,
                            c + (i + 1) * 1_000_000])
        units = [[done - 30_000_000, 0, done, 0, 0, 0, 0]
                 for done in range(10_000_000, 2_000_000_000, 20_000_000)]
        return {"window": [{"t_ns": 0}, {"t_ns": samples[-1][0]}],
                "host_samples": samples, "units": units}

    def test_handshake_workloads_keep_the_quietest_quarter(self):
        load = self.load()
        kept = metrics.quiet_slices("full_handshake", load)
        # Steal 0 (slice 1) and 1 (slice 3), in time order.
        self.assertEqual([(k[0], k[2], k[3]) for k in kept],
                         [(250_000_000, 0.0, 2_000_000),
                          (750_000_000, 0.01, 4_000_000)])
        seconds, units, steal, cpu = metrics.quiet_window("full_handshake", load)
        self.assertAlmostEqual(seconds, 0.5)
        self.assertAlmostEqual(steal, 0.005)
        self.assertEqual(cpu, 6_000_000)
        expected = [u for u in load["units"]
                    if 250_000_000 <= u[2] < 500_000_000
                    or 750_000_000 <= u[2] < 1_000_000_000]
        self.assertEqual(units, expected)

    def test_bulk_download_keeps_the_quieter_half_of_1s_slices(self):
        kept = metrics.quiet_slices("bulk_download", self.load())
        # Two 1-s slices with steal 15 and 20 ticks of 400.
        self.assertEqual([(k[0], k[1]) for k in kept], [(0, 1_000_000_000)])
        self.assertAlmostEqual(kept[0][2], 15 / 400)

    def test_a_window_without_samples_is_used_whole(self):
        load = self.load()
        del load["host_samples"]
        seconds, units, steal, cpu = metrics.quiet_window("full_handshake", load)
        self.assertAlmostEqual(seconds, 2.0)
        self.assertEqual(len(units), 100)
        self.assertIsNone(cpu)


class RunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        harness.build()
        cls.tmp = tempfile.mkdtemp(prefix="qb-test-",
                                   dir=os.path.join(harness.ROOT, ".bench_build"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def measure(self, workload, trace, **kw):
        run_dir = os.path.join(self.tmp, "%s-%d" % (workload, trace))
        return harness.measure(workload, SEED, kw.pop("seconds", 1.5),
                               0.5, 1, trace, run_dir, **kw)

    def test_each_workload_runs_without_errors(self):
        for workload in ("full_handshake", "resumed_handshake", "bulk_download"):
            with self.subTest(workload=workload):
                setups, server, load, load_ok = self.measure(workload, False)
                self.assertTrue(load_ok)
                self.assertEqual(server["failures"], [])
                self.assertEqual(load["failures"], [])
                _t0, _t1, units = metrics.window(load)
                self.assertGreater(len(units), 0)
                e2e = metrics.end_to_end(workload, setups, server, load)
                self.assertGreater(e2e["cps"], 0)
                if workload == "resumed_handshake":
                    self.assertEqual(sum(u[4] for u in units),
                                     sum(u[5] for u in units))

    def test_decorator_is_transparent(self):
        # A fixed number of responses per client makes every engine count
        # exact, so traced and untraced runs must match op for op.
        for workload, conns, requests in (("full_handshake", 8, 3),
                                          ("bulk_download", 4, 2)):
            with self.subTest(workload=workload):
                finals = []
                for trace in (False, True):
                    _s, server, load, load_ok = self.measure(
                        workload, trace, requests=requests)
                    self.assertTrue(load_ok)
                    self.assertEqual(server["failures"], [])
                    units = len(load["units"])
                    self.assertEqual(units, conns * requests)
                    finals.append({k: server["final"][k] / units for k in
                                   ("submitted", "seal_batches",
                                    "seal_batch_ops")})
                self.assertEqual(finals[0], finals[1])
                self.assertGreater(finals[0]["submitted"], 0)


if __name__ == "__main__":
    unittest.main()
