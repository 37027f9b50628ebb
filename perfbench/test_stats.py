"""Self-tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import run
import stats


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = [float(x) for x in range(10, 0, -1)]  # order must not matter
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 100), 10.0)
        self.assertAlmostEqual(stats.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(xs, 95), 9.55)
        self.assertEqual(stats.median([3.0]), 3.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(200, 95), 10.0)
        xs = [float(x) for x in range(200)]
        self.assertAlmostEqual(stats.tail_percentile(xs, 95),
                               stats.percentile(xs, 95))
        with self.assertRaises(ValueError):
            stats.tail_percentile(xs[:199], 95)
        with self.assertRaises(ValueError):
            stats.tail_percentile([float(x) for x in range(999)], 99)
        self.assertGreater(stats.tail_percentile(
            [float(x) for x in range(1000)], 99), 989.0)


class RatioTest(unittest.TestCase):
    def test_carries_its_base(self):
        r = stats.ratio(3, 4)
        self.assertEqual(r.value, 0.75)
        self.assertEqual(r.base, 4)

    def test_empty_base(self):
        with self.assertRaises(ValueError):
            stats.ratio(0, 0)
        self.assertEqual(stats.ratio(0, 0, when_empty=1.0),
                         stats.Ratio(1.0, 0))
        with self.assertRaises(ValueError):
            stats.ratio(1, -1)


def span(name, ts, dur, parent=-1):
    return {"name": name, "ts": ts, "dur": dur, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("sim.run_until", 0, 100),
                 span("bench.on_arrival", 10, 20, parent=0),
                 span("bcp.compose", 12, 15, parent=1),
                 span("bench.on_arrival", 50, 10, parent=0)]
        t = stats.self_times(spans)
        self.assertEqual(t["sim.run_until"], stats.SpanTotals(1, 100, 70))
        self.assertEqual(t["bench.on_arrival"], stats.SpanTotals(2, 30, 15))
        self.assertEqual(t["bcp.compose"], stats.SpanTotals(1, 15, 15))
        # Self times partition the root: nothing counted twice or lost.
        self.assertEqual(sum(x.self_us for x in t.values()), 100)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("a.x", 0, 100),
                 span("b.y", 10, 20, parent=0),   # 10..30
                 span("b.y", 20, 20, parent=0),   # 20..40 overlaps
                 span("b.z", 90, 30, parent=0)]   # 90..120 overhangs
        self.assertEqual(stats.self_times(spans)["a.x"].self_us, 100 - 30 - 10)

    def test_coverage_excludes_glue(self):
        spans = [span("sim.run_until", 0, 90),
                 span("bench.on_arrival", 0, 50, parent=0),
                 span("bcp.compose", 0, 40, parent=1)]
        totals = stats.self_times(spans)
        # Layer self time: sim 40 + bcp 40; the glue's 10 is not covered.
        self.assertAlmostEqual(stats.coverage(totals, 100), 0.8)
        with self.assertRaises(ValueError):
            stats.coverage(totals, 0)


def raw_result(compose_ms, breaks, recovered):
    counters = {"requests": 10, "session.established": 8,
                "bcp.composes": 10, "bcp.probe_messages": 250,
                "session.breaks": breaks, "session.backup_switches": recovered,
                "session.reactive_recoveries": 0}
    return {"setup_s": [3.0, 1.0, 2.0], "peak_rss_bytes": 2**21,
            "loop": {"units": 4, "wall_s": 2.0, "compose_ms": compose_ms,
                     "virtual_setup_ms": [100.0] * 200,
                     "counters": counters}}


class EndToEndTest(unittest.TestCase):
    def test_metrics_from_raw_samples(self):
        metrics, bases = run.end_to_end(
            raw_result([1.0] * 190 + [5.0] * 10, breaks=4, recovered=3))
        self.assertEqual(metrics["setup_s"], (2.0, "s"))
        self.assertEqual(metrics["compose_ms_p50"], (1.0, "ms"))
        self.assertEqual(metrics["sessions_per_s"], (4.0, "1/s"))
        self.assertEqual(metrics["ticks_per_s"], (2.0, "1/s"))
        self.assertEqual(metrics["probe_msgs_per_request"], (25.0, "count"))
        self.assertEqual(metrics["recovery_ratio"], (0.75, "ratio"))
        self.assertEqual(metrics["success_ratio"], (0.8, "ratio"))
        self.assertEqual(metrics["peak_rss_mb"], (2.0, "MB"))
        self.assertEqual(bases["success_ratio"], 10)
        self.assertEqual(bases["recovery_ratio"], 4)

    def test_no_breaks_reads_as_full_recovery(self):
        metrics, bases = run.end_to_end(
            raw_result([1.0] * 200, breaks=0, recovered=0))
        self.assertEqual(metrics["recovery_ratio"], (1.0, "ratio"))
        self.assertEqual(bases["recovery_ratio"], 0)

    def test_refuses_a_thin_tail(self):
        with self.assertRaises(ValueError):
            run.end_to_end(raw_result([1.0] * 199, breaks=0, recovered=0))


if __name__ == "__main__":
    unittest.main()
