"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402
import stats  # noqa: E402
from stats import Span  # noqa: E402


def span(i, parent, name, start, end, pass_=0):
    return Span(i, parent, 0, 1, pass_, name, start, end)


class PercentileTest(unittest.TestCase):
    def test_single_sample_is_every_percentile(self):
        for p in (1, 50, 90, 100):
            self.assertEqual(stats.percentile([0.128], p), 0.128)

    def test_small_n_uses_nearest_rank(self):
        self.assertEqual(stats.percentile([2.0, 1.0], 50), 1.0)
        self.assertEqual(stats.percentile([2.0, 1.0], 90), 2.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        ten = list(range(1, 11))
        self.assertEqual(stats.percentile(ten, 90), 9)
        self.assertEqual(stats.percentile(ten, 91), 10)
        self.assertEqual(stats.percentile(ten, 100), 10)

    def test_ties(self):
        self.assertEqual(stats.percentile([1, 1, 1, 2], 50), 1)
        self.assertEqual(stats.percentile([1, 1, 1, 2], 75), 1)
        self.assertEqual(stats.percentile([1, 1, 1, 2], 90), 2)
        self.assertEqual(stats.percentile([5] * 7, 90), 5)

    def test_stays_inside_min_max(self):
        values = [0.000128, 0.000127, 0.00013, 0.0002]
        for p in range(1, 101):
            v = stats.percentile(values, p)
            self.assertIn(v, values)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class MedianAndGeomeanTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([7.5]), 7.5)

    def test_geomean_keeps_small_values_visible(self):
        # One 400 h campaign against three 1 h ones: the arithmetic mean is
        # 100.75 h, the geometric mean 4.47 h.
        self.assertAlmostEqual(stats.geomean([400, 1, 1, 1]), 400 ** 0.25)

    def test_geomean_ignores_order(self):
        values = [0.1 * i + 0.37 for i in range(1, 200)]
        self.assertEqual(stats.geomean(values), stats.geomean(values[::-1]))

    def test_geomean_rejects_non_positive(self):
        for bad in ([], [1.0, 0.0], [2.0, -1.0]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)


class ChunkTest(unittest.TestCase):
    def test_steady_script_gives_its_rate(self):
        done = [0.01 * (i + 1) for i in range(400)]  # 100 ops a second.
        self.assertAlmostEqual(stats.chunk_throughput(done), 100.0)

    def test_one_stalled_chunk_does_not_move_the_rate(self):
        done = [0.01 * (i + 1) for i in range(400)]
        stalled = [t + (2.0 if t > 1.0 else 0.0) for t in done]
        self.assertAlmostEqual(stats.chunk_throughput(stalled), 100.0)
        self.assertLess(400 / stalled[-1], 70.0)  # the whole-script rate drops.

    def test_chunks_hold_whole_quanta(self):
        # Alternating cheap and dear operations: chunks of whole pairs all
        # have the same rate.
        done, t = [], 0.0
        for i in range(40):
            t += 0.01 if i % 2 == 0 else 0.03
            done.append(t)
        self.assertAlmostEqual(stats.chunk_throughput(done, quantum=2), 50.0)
        self.assertEqual(stats.chunk_throughput(done[:3], quantum=2),
                         2 / done[1])

    def test_chunk_percentile(self):
        samples = [float(i % 10) for i in range(2000)]
        ends = list(range(2000))
        self.assertEqual(stats.chunk_percentile(samples, ends, 90), 8.0)
        # A slow stretch confined to one chunk does not move the median.
        slow = [v + (100.0 if 100 <= i < 200 else 0.0) for i, v in enumerate(samples)]
        self.assertEqual(stats.chunk_percentile(slow, ends, 90), 8.0)
        self.assertGreater(stats.percentile(slow, 99), 100.0)  # all samples.

    def test_chunk_percentile_orders_by_completion(self):
        samples = [1.0] * 100 + [5.0] * 100 + [1.0] * 100
        ends = list(range(100, 200)) + list(range(100)) + list(range(200, 300))
        # Two of the three chunks (by completion time) hold only 1.0s.
        self.assertEqual(stats.chunk_percentile(samples, ends, 50), 1.0)

    def test_few_samples_use_every_sample(self):
        samples = [float(i) for i in range(150)]
        self.assertEqual(stats.chunk_percentile(samples, samples, 90),
                         stats.percentile(samples, 90))


class SelfTimeTest(unittest.TestCase):
    def test_back_to_back_children(self):
        spans = [span(1, 0, "core.campaign", 0, 100),
                 span(2, 1, "sampling.setup", 10, 20),
                 span(3, 1, "labels.annotate", 20, 30)]
        self.assertEqual(stats.self_times(spans), {1: 80, 2: 10, 3: 10})

    def test_nested_children(self):
        spans = [span(1, 0, "core.campaign", 0, 100),
                 span(2, 1, "labels.annotate", 10, 40),
                 span(3, 2, "labels.inner", 15, 25)]
        # The grandchild is inside the child: it reduces the child's self
        # time, not the parent's a second time.
        self.assertEqual(stats.self_times(spans), {1: 70, 2: 20, 3: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, "serve.request", 0, 100),
                 span(2, 1, "a.x", 10, 30),
                 span(3, 1, "b.y", 20, 40)]
        self.assertEqual(stats.self_times(spans)[1], 70)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, "sched.grant", 50, 100),
                 span(2, 1, "serve.round", 40, 60),
                 span(3, 1, "serve.round", 90, 130)]
        self.assertEqual(stats.self_times(spans)[1], 30)

    def test_layer_self_time_partitions_top_level_time(self):
        spans = [span(1, 0, "core.campaign", 0, 100),
                 span(2, 1, "sampling.setup", 0, 60),
                 span(3, 1, "labels.annotate", 60, 70),
                 span(4, 3, "kg.read", 61, 62),
                 span(5, 0, "core.campaign", 200, 250)]
        by_layer = stats.layer_self_ns(spans)
        self.assertEqual(by_layer, {"core": 80, "sampling": 60, "labels": 9,
                                    "kg": 1})
        self.assertEqual(sum(by_layer.values()), 150)

    def test_name_table(self):
        spans = [span(1, 0, "core.campaign", 0, 10),
                 span(2, 1, "sampling.setup", 0, 4),
                 span(3, 0, "core.campaign", 20, 26)]
        self.assertEqual(stats.name_table(spans),
                         {"core.campaign": [2, 16, 12],
                          "sampling.setup": [1, 4, 4]})

    def test_read_spans_round_trip(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False) as f:
            f.write("1099511627777\t0\t3\t1\t0\tcore.campaign\t100\t250\n")
            f.write("1099511627778\t1099511627777\t3\t1\t0\tsampling.setup\t110\t120\n")
        try:
            spans = stats.read_spans(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(spans[1], Span(1099511627778, 1099511627777, 3, 1, 0,
                                        "sampling.setup", 110, 120))


class MetricsTest(unittest.TestCase):
    RAW = {"setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 50.0, "ops": 40,
           "script_s": 2.0, "op_ms": [float(i) for i in range(1, 21)],
           "op_end_s": [0.1 * i for i in range(1, 21)],
           "done_s": [0.05 * i for i in range(1, 41)], "quantum": 1,
           "hours": [1.0, 4.0], "failures": [], "attempted": 10,
           "samples": {}, "values": {}}

    def test_end_to_end(self):
        m = run.end_to_end(self.RAW)
        self.assertEqual(m["setup_s"], (0.2, 3))
        self.assertAlmostEqual(m["ops_per_s"][0], 20.0)
        self.assertEqual(m["op_p50_ms"], (10.0, 20))
        self.assertEqual(m["op_p90_ms"], (18.0, 20))
        self.assertAlmostEqual(m["annotation_hours_geomean"][0], 2.0)

    def test_layer_down_pass_moves_time_out_of_serve(self):
        raw = {"traced_s": 1e-6, "untraced_s": 0.8e-6,
               "counts": {"campaigns": 1, "rounds": 2, "refs": 4,
                          "paid_refs": 3}}
        spans = [span(1, 0, "serve.request", 0, 600),
                 span(2, 0, "bench.check", 600, 700),
                 span(3, 0, "core.campaign", 0, 300, pass_=1),
                 span(4, 3, "sampling.setup", 0, 100, pass_=1),
                 span(5, 0, "datasets.generate", 0, 5e6, pass_=2)]
        metrics, table = run.per_layer(raw, spans)
        self.assertAlmostEqual(metrics["serve.self_share"][0], 0.3)
        self.assertAlmostEqual(metrics["core.self_share"][0], 0.2)
        self.assertAlmostEqual(metrics["sampling.self_share"][0], 0.1)
        self.assertAlmostEqual(metrics["bench.self_share"][0], 0.1)
        self.assertAlmostEqual(metrics["trace.unattributed_share"][0], 0.3)
        self.assertAlmostEqual(metrics["trace.overhead_share"][0], 0.25)
        self.assertAlmostEqual(metrics["datasets.generate_ms"][0], 5.0)
        self.assertAlmostEqual(metrics["labels.cache_hit_share"][0], 0.25)
        self.assertEqual(metrics["core.rounds_per_campaign"][0], 2)


class ServeSplitTest(unittest.TestCase):
    def test_layers_of_a_step(self):
        names = {0: {"serve.request.step": [2, 200e3, 200e3]},
                 3: {"serve.handle.step": [2, 80e3, 80e3]},
                 4: {"serve.session_step": [4, 200e3, 200e3]},
                 1: {"core.campaign": [1, 60e3, 40e3]}}
        row = run.serve_split(names, {"rounds": 3})["step"]
        self.assertEqual(row["tcp_us"], 100.0)
        self.assertEqual(row["handle_us"], 40.0)
        self.assertEqual(row["transport_us"], 60.0)
        self.assertEqual(row["session_step_us"], 50.0)
        self.assertEqual(row["engine_round_us"], 20.0)
        self.assertEqual(row["gate_us"], 30.0)


if __name__ == "__main__":
    unittest.main()
