"""Tests of summarize.py: self time with nested and overlapping children,
and unattributed spans taken out of the span type that encloses them."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import summarize  # noqa: E402


def span(id_, name, ts, dur, parent=0, request=1, within=""):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"id": id_, "parent": parent, "request": request,
                     "within": within}}


class CoveredTest(unittest.TestCase):
    def test_union_of_overlapping_and_clipped_intervals(self):
        self.assertEqual(summarize.covered(0, 10, []), 0)
        self.assertEqual(summarize.covered(0, 10, [(2, 5), (4, 8)]), 6)
        self.assertEqual(summarize.covered(0, 10, [(3, 4), (2, 6)]), 4)
        self.assertEqual(summarize.covered(0, 10, [(-5, 2), (9, 20)]), 3)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        events = [
            span(1, "request", 0, 100),
            span(2, "serve.service", 10, 80, parent=1),
            span(3, "nlq.translate", 10, 30, parent=2),
            span(4, "core.plan", 40, 20, parent=2),
        ]
        totals, answer = summarize.self_times(events)
        self.assertEqual(answer, 100)
        self.assertEqual(totals["unattributed"], 20)
        self.assertEqual(totals["serve"], 30)
        self.assertEqual(totals["nlq"], 30)
        self.assertEqual(totals["core"], 20)

    def test_overlapping_children_count_once(self):
        # Two shard legs of one gather run concurrently.
        events = [
            span(1, "dist.gather", 0, 10, request=-1, within="db.storage"),
            span(2, "shard.scan", 1, 6, parent=1, request=-1),
            span(3, "shard.scan", 2, 7, parent=1, request=-1),
        ]
        totals, _ = summarize.self_times(events)
        self.assertEqual(totals["dist"], 10 - 8)
        self.assertEqual(totals["shard"], 13)

    def test_unattributed_gather_leaves_storage_self_time(self):
        events = [
            span(1, "request", 0, 50),
            span(2, "exec.execute", 0, 40, parent=1),
            span(3, "db.storage", 5, 30, parent=2),
            span(4, "dist.gather", 10, 20, request=-1, within="db.storage"),
        ]
        shares = summarize.shares(events)
        self.assertAlmostEqual(shares["self.db_share"], 10 / 50)
        self.assertAlmostEqual(shares["self.dist_share"], 20 / 50)
        self.assertAlmostEqual(shares["self.exec_share"], 10 / 50)
        self.assertAlmostEqual(shares["trace.unattributed_share"], 10 / 50)
        self.assertAlmostEqual(shares["trace.remote_share"], 20 / 50)
        total = sum(v for k, v in shares.items() if k.startswith("self."))
        self.assertAlmostEqual(total + shares["trace.unattributed_share"], 1.0)


if __name__ == "__main__":
    unittest.main()
