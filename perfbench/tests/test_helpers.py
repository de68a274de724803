"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import common, tracing  # noqa: E402


class TestPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(common.percentile(samples, 0.50), 50)
        self.assertEqual(common.percentile(samples, 0.99), 99)
        self.assertEqual(common.percentile(samples, 1.0), 100)

    def test_rank_rounds_up_and_ignores_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        # ceil(0.5 * 5) = 3rd smallest; ceil(0.99 * 5) = 5th.
        self.assertEqual(common.percentile(samples, 0.50), 3.0)
        self.assertEqual(common.percentile(samples, 0.99), 5.0)
        self.assertEqual(common.percentile(samples, 0.01), 1.0)

    def test_p99_over_a_thousand_samples_is_the_tenth_largest(self):
        samples = list(range(1000))
        self.assertEqual(common.percentile(samples, 0.99), 989)

    def test_rejects_empty_and_bad_fraction(self):
        with self.assertRaises(ValueError):
            common.percentile([], 0.5)
        with self.assertRaises(ValueError):
            common.percentile([1.0], 0.0)


class TestGroups(unittest.TestCase):
    def test_groups_are_consecutive_in_completion_order(self):
        records = [(float(done), 0.001, 10) for done in (3, 1, 2, 5, 4, 6)]
        groups = common.groups_of(records, groups=3)
        self.assertEqual([[r[0] for r in group] for group in groups],
                         [[1, 2], [3, 4], [5, 6]])

    def test_steady_rate_is_the_median_group_rate(self):
        # Groups of two 10-event requests finishing 1 s, 2 s and 10 s
        # after the previous group: 20, 10 and 2 events/s.
        done = [0.5, 1.0, 2.5, 3.0, 8.0, 13.0]
        records = [(t, 0.001, 10) for t in done]
        self.assertAlmostEqual(
            common.steady_rate(records, start=0.0, groups=3), 10.0)

    def test_steady_p50_is_the_median_of_group_medians(self):
        latencies = [1, 1, 1, 5, 5, 5, 9, 9, 9]
        records = [(float(t), latency, 1)
                   for t, latency in enumerate(latencies)]
        self.assertEqual(common.steady_p50(records, groups=3), 5)


class TestContentDigest(unittest.TestCase):
    SNAPSHOT = {
        "stream": "a", "profiler": "SH-R1-P1", "backend": "vectorized",
        "final": True, "flushed_partial": False, "events": 3000,
        "pending_events": 0, "intervals_completed": 3, "batches": 30,
        "intervals": [{"index": 0, "events_observed": 1000,
                       "error_percent": 1.5, "candidates": [[1, 2, 30]]}],
        "summary": {"num_intervals": 3, "net_error_percent": 1.5},
    }

    def test_ignores_backend_and_framing(self):
        other = dict(self.SNAPSHOT, stream="b", backend="scalar",
                     batches=3, pending_events=7, final=False)
        self.assertEqual(common.content_digest(self.SNAPSHOT),
                         common.content_digest(other))

    def test_sees_profile_content(self):
        base = common.content_digest(self.SNAPSHOT)
        for key, value in (("events", 3001), ("intervals_completed", 2),
                           ("flushed_partial", True),
                           ("profiler", "MH4-C1-R0-P1"),
                           ("summary", {"num_intervals": 3,
                                        "net_error_percent": 1.4})):
            changed = dict(self.SNAPSHOT, **{key: value})
            self.assertNotEqual(common.content_digest(changed), base, key)
        candidates = dict(self.SNAPSHOT, intervals=[
            dict(self.SNAPSHOT["intervals"][0], candidates=[[1, 2, 31]])])
        self.assertNotEqual(common.content_digest(candidates), base)


class TestSelfTime(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(tracing.covered(0, 100, []), 0)
        self.assertEqual(tracing.covered(0, 100, [(10, 20), (30, 40)]), 20)
        self.assertEqual(tracing.covered(0, 100, [(10, 30), (20, 40)]), 30)
        self.assertEqual(tracing.covered(0, 100, [(-10, 10), (90, 120)]), 20)
        self.assertEqual(tracing.covered(0, 100, [(10, 90), (20, 30)]), 80)
        self.assertEqual(tracing.covered(0, 100, [(200, 300)]), 0)

    def test_self_times_subtract_direct_children_only(self):
        spans = [
            (0, -1, "session.feed", 0, 100, 0),
            (1, 0, "kernels.sh", 10, 50, 0),
            (2, 1, "hashing.index", 20, 30, 0),
            (3, 0, "session.truth", 60, 90, 0),
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, {0: 30, 1: 30, 2: 10, 3: 30})
        # Self times of a nested tree add up to the root's duration.
        self.assertEqual(sum(own.values()), 100)

    def test_roots(self):
        spans = [(0, -1, "bench.push", 0, 10, 0), (1, 0, "a.x", 1, 9, 0),
                 (2, 1, "a.y", 2, 3, 0), (3, -1, "bench.push", 20, 30, 0)]
        self.assertEqual(tracing.roots(spans), {0: 0, 1: 0, 2: 0, 3: 3})

    def test_layer_metrics_of_a_single_thread(self):
        spans = [
            (0, -1, "bench.push", 0, 1000, 100),
            (1, 0, "session.feed", 0, 900, 100),
            (2, 1, "kernels.sh", 100, 500, 100),
            (3, 2, "hashing.index", 200, 300, 100),
            (4, 1, "session.truth", 600, 800, 0),
        ]
        metrics, failures = tracing.layer_metrics({1: spans}, {}, (0, 1000), 0)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(metrics["kernels.share"], 0.3)
        self.assertAlmostEqual(metrics["hashing.share"], 0.1)
        self.assertAlmostEqual(metrics["session.share"], 0.5)
        self.assertAlmostEqual(metrics["session.truth_share"], 0.2)
        self.assertAlmostEqual(metrics["kernels.sh.ns_per_event"], 3.0)
        self.assertEqual(metrics["session.intervals_closed"], 1)
        self.assertEqual(metrics["queue.hop_us"], 0.0)

    def test_accounted_run_passes(self):
        # 995 of 1000 ns are layer self time: 0.5 % unaccounted.
        spans = [(0, -1, "bench.push", 0, 998, 100),
                 (1, 0, "session.feed", 1, 996, 100),
                 (2, 1, "kernels.sh", 100, 500, 100)]
        share, failures = tracing.check_accounted(spans, (0, 1000))
        self.assertAlmostEqual(share, 0.005)
        self.assertEqual(failures, [])

    def test_time_outside_every_layer_fails_the_check(self):
        # The loop between two feeds takes 300 ns of the window.
        gaps = [(0, -1, "bench.push", 0, 400, 100),
                (1, 0, "session.feed", 0, 400, 100),
                (2, -1, "bench.push", 700, 1000, 100),
                (3, 2, "session.feed", 700, 1000, 100)]
        share, failures = tracing.check_accounted(gaps, (0, 1000))
        self.assertAlmostEqual(share, 0.3)
        self.assertEqual(len(failures), 1)
        # Work done inside the bench wrapper but in no wrapped call.
        wrapper = [(0, -1, "bench.push", 0, 1000, 100),
                   (1, 0, "session.feed", 0, 900, 100)]
        share, failures = tracing.check_accounted(wrapper, (0, 1000))
        self.assertAlmostEqual(share, 0.1)
        self.assertEqual(len(failures), 1)

    def test_queue_hop_is_the_uncovered_round_trip(self):
        client = [(0, -1, "bench.push", 0, 1000, 10),
                  (1, 0, "client.encode_batch", 0, 100, 180),
                  (2, 0, "client.decode", 900, 1000, 20)]
        server = [(0, -1, "server.dispatch", 150, 850, 0x02),
                  (1, 0, "wait.worker", 200, 700, 0),
                  (2, 0, "server.reply", 700, 800, 0)]
        worker = [(0, -1, "worker.fold", 300, 600, 1)]
        metrics, failures = tracing.layer_metrics(
            {1: client, 2: server, 3: worker}, {}, (0, 1000), 0)
        self.assertEqual(failures, [])
        # 1000 - client 200 - server 200 (dispatch 100 + reply 100) - worker 300.
        self.assertAlmostEqual(metrics["queue.hop_us"], 0.3)
        self.assertAlmostEqual(metrics["server.dispatch_us"], 0.1)
        self.assertAlmostEqual(metrics["server.reply_encode_us"], 0.1)
        self.assertAlmostEqual(metrics["client.bytes_per_event"], 18.0)


if __name__ == "__main__":
    unittest.main()
