"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

They show that the output checks can fail (a cell corrupted three ways
is flagged each time), that the self-time arithmetic of the traced run
is right on a hand-built span tree, that timed segments are cut at
garbage collections and combined by per-segment medians, and that
set-up is deterministic for a fixed seed.  The file name keeps them out of the repository's pytest
collection: they test the benchmark, not the library.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402

#: a workload small enough to sweep in well under a second
TINY = Workload(
    name="selftest",
    base_scale="tiny",
    transactions=600,
    span=1.0,
    methods=("hash", "kl"),
    ks=(4,),
    window_hours=24.0,
    execution="mode=2pc",
)


def scratch_dir() -> str:
    """A fresh directory under the checkout's benchmark work directory."""
    os.makedirs(bench.WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK)


class CheckerFlagsCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.experiments.run import run_experiment

        cls.work = scratch_dir()
        path = os.path.join(cls.work, "tiny.rct")
        _times, log, _digests = bench.set_up(TINY.config(3), path, 1)
        cls.facts = checks.LogFacts(log)
        cls.rs = run_experiment(TINY.spec(path), jobs=1)
        cls.window = cls.rs.spec.window_seconds
        # kl repartitions, so its cell has events whose moves can be cut
        cls.cell = next(c for c in cls.rs if c.key.method.name == "kl")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def corrupted(self):
        return copy.deepcopy(self.cell)

    def test_clean_cells_pass(self):
        self.assertEqual(checks.check_result_set(self.rs, self.facts), {})
        self.assertTrue(self.cell.events)

    def test_vertex_in_wrong_shard(self):
        k = self.cell.key.k
        edges = self.facts.edges

        def cut(assignment):
            return sum(1 for s, d in edges if assignment[s] != assignment[d])

        # a vertex whose move to another shard changes the recounted cut
        base = cut(self.cell.assignment)
        cell = self.corrupted()
        for vertex in sorted(cell.assignment):
            shard = cell.assignment[vertex]
            cell.assignment[vertex] = (shard + 1) % k
            if cut(cell.assignment) != base:
                break
            cell.assignment[vertex] = shard
        else:
            self.fail("no single move changes the cut")
        problems = checks.check_cell(cell, self.facts, self.window)
        self.assertTrue(any("static_edge_cut" in p for p in problems), problems)

    def test_vertex_on_shard_out_of_range(self):
        cell = self.corrupted()
        vertex = next(iter(cell.assignment))
        cell.assignment[vertex] = cell.key.k
        problems = checks.check_cell(cell, self.facts, self.window)
        self.assertTrue(any("outside 0.." in p for p in problems), problems)

    def test_off_by_one_move_count(self):
        cell = self.corrupted()
        cell.events[0] = dataclasses.replace(
            cell.events[0], moves=cell.events[0].moves + 1)
        problems = checks.check_cell(cell, self.facts, self.window)
        self.assertTrue(any("cumulative_moves" in p for p in problems), problems)

    def test_dropped_series_point(self):
        cell = self.corrupted()
        del cell.series.points[len(cell.series.points) // 2]
        problems = checks.check_cell(cell, self.facts, self.window)
        self.assertTrue(any("series points" in p for p in problems), problems)


class SelfTimeArithmetic(unittest.TestCase):
    # root 0..10 with children a 1..4 (holding a2 2..3), x 3..6
    # (overlapping a) and x 9..12 (running past the root's end)
    SPANS = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a2", 2.0, 3.0, 1),
        ("x", 3.0, 6.0, 0),
        ("x", 9.0, 12.0, 0),
    ]

    def test_self_times(self):
        # root: 10 minus the union [1,6] + [9,10] = 4
        self.assertEqual(
            tracing.self_times(self.SPANS),
            {"root": 4.0, "a": 2.0, "a2": 1.0, "x": 6.0},
        )

    def test_nested_same_name_counts_once_in_totals(self):
        spans = [("f", 0.0, 5.0, -1), ("f", 1.0, 2.0, 0), ("g", 2.0, 3.0, 0)]
        self.assertEqual(tracing.total_times(spans), {"f": 5.0, "g": 1.0})
        # the outer f keeps 5 - 1 - 1, the inner f its whole 1
        self.assertEqual(tracing.self_times(spans), {"f": 4.0, "g": 1.0})

    def test_recorder_builds_the_tree(self):
        ticks = iter(range(100))
        rec = tracing.Recorder(clock=lambda: float(next(ticks)))
        with rec.span("root"):          # opens at 0
            with rec.span("a"):         # 1
                with rec.span("a2"):    # 2, closes at 3
                    pass
            with rec.span("b"):         # a closes at 4; b 5..6
                pass
        spans = rec.spans()             # root closes at 7
        self.assertEqual(spans, [
            ("root", 0.0, 7.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a2", 2.0, 3.0, 1),
            ("b", 5.0, 6.0, 0),
        ])
        self.assertEqual(
            tracing.self_times(spans),
            {"root": 3.0, "a": 2.0, "a2": 1.0, "b": 1.0},
        )


class SegmentTiming(unittest.TestCase):
    def test_segment_median_sums_per_segment_medians(self):
        samples = [[1.0, 5.0], [2.0, 1.0], [3.0, 3.0]]
        self.assertEqual(bench.segment_median(samples), 2.0 + 3.0)
        # a repeat cut into another number of segments is left out
        self.assertEqual(bench.segment_median(samples + [[10.0]]), 5.0)

    def test_segment_median_falls_back_to_totals(self):
        samples = [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
        self.assertEqual(bench.segment_median(samples), 3.0)

    def test_collections_cut_segments(self):
        import gc

        _result, walls, cpus = bench.segmented(
            lambda: [gc.collect(0) for _ in range(2)])
        self.assertEqual(len(walls), 3)
        self.assertEqual(len(cpus), 3)

    def test_same_allocations_same_cuts(self):
        def allocate():
            return [[i] for i in range(50000)]

        first = bench.segmented(allocate)[1]
        second = bench.segmented(allocate)[1]
        self.assertGreater(len(first), 1)
        self.assertEqual(len(first), len(second))


class SetUpIsDeterministic(unittest.TestCase):
    def test_same_seed_same_trace(self):
        work = scratch_dir()
        try:
            first = bench.set_up(TINY.config(11), os.path.join(work, "a.rct"), 2)[2]
            second = bench.set_up(TINY.config(11), os.path.join(work, "b.rct"), 1)[2]
            other = bench.set_up(TINY.config(12), os.path.join(work, "c.rct"), 1)[2]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(len(first), 1)
        self.assertEqual(first, second)
        self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()
