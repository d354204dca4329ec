#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic (ledger.py).

    python3 perfbench/test_ledger.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402


def span(name, start, end, parent=-1, op=1):
    return [name, start, end, parent, op]


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        xs = list(range(1, 1001))
        value, pct, beyond = ledger.tail(reversed(xs))
        self.assertEqual(beyond, 10)
        self.assertEqual(value, 990)
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(sum(1 for x in xs if x > value), beyond)

    def test_smallest_qualifying_count(self):
        value, pct, beyond = ledger.tail([5.0] + [1.0] * 10)
        self.assertEqual((value, beyond), (1.0, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_is_the_maximum_with_none_beyond(self):
        self.assertEqual(ledger.tail([3.0, 9.0, 4.0]), (9.0, 100.0, 0))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            ledger.tail([])


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [span("bench.job", 0, 100),
                 span("core.runCacheSweep", 10, 60, parent=0),
                 span("cache.runFaSweep", 20, 40, parent=1)]
        self.assertEqual(ledger.self_times(spans), [50, 30, 20])

    def test_abutting_children(self):
        spans = [span("bench.job", 0, 100),
                 span("scene.makeScene", 10, 30, parent=0),
                 span("pipeline.render", 30, 70, parent=0)]
        self.assertEqual(ledger.self_times(spans), [40, 20, 40])

    def test_overlapping_children_count_once(self):
        # Children on two threads under one parent.
        spans = [span("bench.request", 0, 100),
                 span("service.parseRequest", 10, 50, parent=0),
                 span("service.parseRequest", 30, 80, parent=0)]
        self.assertEqual(ledger.self_times(spans)[0], 30)

    def test_child_past_parent_is_clipped(self):
        spans = [span("bench.job", 0, 50),
                 span("layout.mapPacked", 40, 90, parent=0)]
        self.assertEqual(ledger.self_times(spans), [40, 50])

    def test_layer_self_ms_by_op(self):
        spans = [span("bench.job", 0, 2_000_000, op=1),
                 span("scene.makeScene", 0, 1_500_000, parent=0, op=1),
                 span("scene.makeScene", 0, 4_000_000, op=2)]
        got = ledger.layer_self_ms(spans, ops={1})
        self.assertAlmostEqual(got["bench"], 0.5)
        self.assertAlmostEqual(got["scene"], 1.5)


class ErrorRateTest(unittest.TestCase):
    def test_retries_are_not_ops(self):
        attempted, failed, retries = ledger.request_counts(
            [1, 3, 1, 2], [1, 1, 0, 1])
        self.assertEqual((attempted, failed, retries), (4, 1, 3))
        self.assertAlmostEqual(ledger.error_rate(attempted, failed), 0.25)

    def test_retried_then_refused_request_fails_once(self):
        self.assertEqual(ledger.request_counts([1000], [0]), (1, 1, 999))

    def test_mismatched_lists(self):
        with self.assertRaises(ValueError):
            ledger.request_counts([1, 1], [1])

    def test_no_ops(self):
        with self.assertRaises(ValueError):
            ledger.error_rate(0, 0)

    def test_account_adds_checks_jobs_and_requests(self):
        raw = {"checks": [["a", True], ["b", False]],
               "strings": {"job_digests": "aa,aa,bb"},
               "samples": {"request_tries": [2, 1], "request_ok": [1, 1]}}
        self.assertEqual(ledger.account(raw, "aa", ["aa"]), (8, 2, 1))

    def test_corrupted_pin_fails_every_job(self):
        raw = {"checks": [], "strings": {"job_digests": "aa,aa"},
               "samples": {}}
        self.assertEqual(ledger.account(raw, "00"), (2, 2, 0))

    def test_unpinned_jobs_must_agree(self):
        raw = {"checks": [], "strings": {"job_digests": "aa,bb,aa"},
               "samples": {}}
        self.assertEqual(ledger.account(raw), (3, 1, 0))


class AbsenceTest(unittest.TestCase):
    RAW = {"spans": [span("bench.job", 0, 100),
                     span("scene.makeScene", 10, 30, parent=0)],
           "values": {}, "samples": {}, "attempted": 4, "failed": 0,
           "queue_full_retries": 0}

    def test_bypassed_layer_is_null_with_a_reason(self):
        values, reasons = ledger.per_layer(self.RAW, "figures")
        self.assertIsNone(values["service.self_ms"])
        self.assertIsNone(values["trace.spill_ms"])
        self.assertIn("texcached", reasons["service.parse_us"])
        self.assertEqual(values["scene.self_ms"], 20 / 1e6)
        self.assertEqual(set(values), {n for n, _ in ledger.PER_LAYER})

    def test_every_null_has_a_reason_only_where_bypassed(self):
        _, reasons = ledger.per_layer(self.RAW, "stream")
        self.assertTrue(all(n.startswith("service.") for n in reasons))

    def test_result_line_metrics_are_never_bypassed(self):
        for workload in ledger.BYPASSED:
            missing = ledger.absent(workload)
            for name, _ in ledger.RESULT_PER_LAYER:
                self.assertNotIn(name, missing)

    def test_benchmark_json_matches(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         ledger.RESULT_PER_LAYER)
        self.assertEqual([(m["name"], m["unit"])
                          for m in bench["end_to_end"]], ledger.END_TO_END)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(ledger.BYPASSED))


if __name__ == "__main__":
    unittest.main()
