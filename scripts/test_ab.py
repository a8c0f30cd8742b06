#!/usr/bin/env python3
"""The A/B gate's verdict on canned samples (scripts/ab.py `compare`).

    python3 scripts/test_ab.py

Runs nothing but the verdict function: no build, no benchmark.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "v_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def runs(wall_s, ops, failed=0):
    """Five identical runs; the gate compares medians, so one value per side is enough."""
    return [{"correct": True, "attempted": 1000, "failed": failed,
             "metrics": {"w/wall_s": {"value": wall_s, "unit": "s"},
                         "w/v_ops_per_s": {"value": ops, "unit": "1/s"}}}] * 5


def verdict(parent, change):
    rows, failures = ab.compare(SPEC, parent, change)
    return {row[1]: row[6] for row in rows}, failures


class VerdictTest(unittest.TestCase):
    def test_lower_is_better_metric_worse_than_its_bound_fails(self):
        status, failures = verdict(runs(1.0, 100.0), runs(1.3, 100.0))
        self.assertEqual(status["wall_s"], "WORSE")
        self.assertEqual(len(failures), 1)
        # Inside the bound passes.
        self.assertEqual(verdict(runs(1.0, 100.0), runs(1.2, 100.0))[1], [])

    def test_higher_is_better_metric_dropping_past_its_bound_fails(self):
        status, failures = verdict(runs(1.0, 100.0), runs(1.0, 85.0))
        self.assertEqual(status["v_ops_per_s"], "WORSE")
        self.assertEqual(len(failures), 1)
        self.assertEqual(verdict(runs(1.0, 100.0), runs(1.0, 95.0))[1], [])

    def test_move_in_the_better_direction_passes(self):
        status, failures = verdict(runs(1.0, 100.0), runs(0.5, 150.0))
        self.assertEqual(failures, [])
        self.assertEqual(status, {"wall_s": "ok", "v_ops_per_s": "ok", "failed share": "ok"})

    def test_rise_in_the_failed_share_fails(self):
        status, failures = verdict(runs(1.0, 100.0, failed=3), runs(1.0, 100.0, failed=4))
        self.assertEqual(status["failed share"], "WORSE")
        self.assertEqual(len(failures), 1)
        self.assertEqual(verdict(runs(1.0, 100.0, failed=4), runs(1.0, 100.0, failed=3))[1], [])

    def test_wide_parent_spread_is_unresolved_not_failed(self):
        parent = runs(1.0, 100.0)
        parent = [dict(r, metrics=dict(r["metrics"], **{"w/wall_s": {"value": v, "unit": "s"}}))
                  for r, v in zip(parent, (0.6, 0.8, 1.0, 1.2, 1.4))]
        status, failures = verdict(parent, runs(1.1, 100.0))
        self.assertEqual(status["wall_s"], "unresolved")
        self.assertEqual(failures, [])


if __name__ == "__main__":
    unittest.main()
