"""Self-tests of the benchmark's statistics, span arithmetic and gate.

    python3 -m unittest discover -s perfbench
"""
from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

from gate import check_plan
from reference import REFERENCE_S, Sampler, scale, scales
from spans import Span, Tracer, aggregate, covered, write_chrome_trace
from stats import min_samples, percentile, samples_beyond, spread


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile([3.0], 90), 3.0)
        self.assertEqual(percentile([5, 1, 4, 2, 3], 90), 5)

    def test_samples_beyond(self):
        self.assertEqual(samples_beyond(100, 90), 10)
        self.assertEqual(samples_beyond(99, 90), 9)
        self.assertEqual(samples_beyond(20, 50), 10)

    def test_min_samples_leaves_ten_beyond(self):
        self.assertEqual(min_samples(90), 100)
        self.assertEqual(min_samples(50), 20)
        self.assertEqual(min_samples(99), 1000)

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(spread([10.0] * 10), 0.0)
        self.assertAlmostEqual(spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 5.0 / 5.0)


class ReferenceScale(unittest.TestCase):
    def test_scales_use_the_timings_around_each_operation(self):
        fast, slow = REFERENCE_S, 1.5 * REFERENCE_S
        times = [fast] * 20 + [slow] * 20
        factors = scales(times, [0, 10, 20, 39, 40])
        self.assertAlmostEqual(factors[0], 1.0)  # only timings after it
        self.assertAlmostEqual(factors[1], 1.0)
        # Half its window in each state: the mean time, 1.25x reference.
        self.assertAlmostEqual(factors[2], 1 / 1.25)
        self.assertAlmostEqual(factors[3], 1 / 1.5)
        self.assertAlmostEqual(factors[4], 1 / 1.5)  # after the last timing
        self.assertAlmostEqual(scale(times), 1 / 1.25)

    def test_sampler_times_kernel_per_interval_of_work(self):
        sampler = Sampler(every=0.2)
        for seconds in (0.05, 0.1, 0.06, 0.5, 0.01, 0.01):
            sampler.after(seconds)
        # Timed after the third operation (0.21 s of work) and the fourth (0.5 s).
        self.assertEqual(len(sampler.times), 2)
        self.assertAlmostEqual(sampler.pending, 0.02)


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # op 0..10 holds a 1..4 (with a.inner 2..3) and b 5..9.
        tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        with tracer.span("op"):
            with tracer.span("a"):
                with tracer.span("a.inner") as counts:
                    counts["cells"] = 7
            with tracer.span("b"):
                pass
        agg = aggregate(tracer.spans)
        self.assertEqual(agg["op"], {"busy": 10, "self": 3, "calls": 1})
        self.assertEqual(agg["a"], {"busy": 3, "self": 2, "calls": 1})
        self.assertEqual(agg["a.inner"], {"busy": 1, "self": 1, "calls": 1, "cells": 7})
        self.assertEqual(agg["b"]["self"], 4)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            Span(0, "op", 0.0, 10.0, None, 0),
            Span(1, "x", 1.0, 4.0, 0, 0),
            Span(2, "x", 3.0, 6.0, 0, 0),
            Span(3, "x", 9.0, 12.0, 0, 0),
        ]
        agg = aggregate(spans)
        self.assertAlmostEqual(agg["op"]["self"], 10.0 - 5.0 - 1.0)
        self.assertEqual(agg["x"]["calls"], 3)
        self.assertTrue(all(a["self"] >= 0 for a in agg.values()))

    def test_covered_merges_intervals(self):
        self.assertEqual(covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4)
        self.assertEqual(covered([(-5, 1), (8, 20)], 0, 10), 3)
        self.assertEqual(covered([], 0, 10), 0)

    def test_chrome_trace_is_valid_json(self):
        tracer = Tracer(clock=FakeClock([1.0, 1.5, 2.0, 3.0]))
        with tracer.span("op"):
            with tracer.span("mesh_io.parse") as counts:
                counts["triangles_in"] = 12
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            write_chrome_trace(tracer.spans, path)
            events = json.loads(path.read_text())["traceEvents"]
        self.assertEqual([e["name"] for e in events], ["op", "mesh_io.parse"])
        self.assertEqual(events[1]["ph"], "X")
        self.assertEqual(events[1]["ts"], 0.5e6)
        self.assertEqual(events[1]["dur"], 0.5e6)
        self.assertEqual(events[1]["args"]["parent"], 0)
        self.assertEqual(events[1]["args"]["triangles_in"], 12)


def _plan(cells, sequence, commands=None, final=None):
    n = len(sequence)
    return {
        "grid.json": json.dumps({"occupied": cells}).encode(),
        "report.json": json.dumps(
            {"final_component_count": len(cells) if final is None else final}).encode(),
        "sequence.json": json.dumps({"cells": sequence}).encode(),
        "toolpath.json": json.dumps(
            {"commands": [{}] * (1 + 8 * n if commands is None else commands)}).encode(),
    }


# An L: two ground cells and one cell on top of the second.
CELLS = [[0, 0, 0], [1, 0, 0], [1, 0, 1]]


class Gate(unittest.TestCase):
    def test_valid_plan_passes(self):
        self.assertEqual(check_plan(_plan(CELLS, CELLS), inventory=40), [])

    def test_disconnected_sequence(self):
        cells = [[0, 0, 0], [2, 0, 0], [2, 0, 1], [0, 0, 2]]
        problems = check_plan(_plan(cells, cells), inventory=40)
        self.assertTrue(any("touches no earlier" in p for p in problems), problems)

    def test_placement_before_its_support(self):
        order = [[1, 0, 1], [0, 0, 0], [1, 0, 0]]
        problems = check_plan(_plan(CELLS, order), inventory=40)
        self.assertTrue(any("touches no earlier" in p for p in problems), problems)

    def test_missing_cell(self):
        problems = check_plan(_plan(CELLS, CELLS[:2]), inventory=40)
        self.assertTrue(any("never placed" in p for p in problems), problems)

    def test_duplicate_and_foreign_placements(self):
        problems = check_plan(_plan(CELLS, CELLS + [[0, 0, 0], [5, 5, 0]]), inventory=40)
        self.assertTrue(any("more than once" in p for p in problems), problems)
        self.assertTrue(any("outside the grid" in p for p in problems), problems)

    def test_wrong_command_count(self):
        problems = check_plan(_plan(CELLS, CELLS, commands=8 * 3), inventory=40)
        self.assertTrue(any("toolpath commands" in p for p in problems), problems)

    def test_over_inventory(self):
        problems = check_plan(_plan(CELLS, CELLS), inventory=2)
        self.assertTrue(any("inventory" in p for p in problems), problems)

    def test_missing_artifact(self):
        artifacts = _plan(CELLS, CELLS)
        del artifacts["toolpath.json"]
        self.assertEqual(len(check_plan(artifacts, inventory=40)), 1)


if __name__ == "__main__":
    unittest.main()
