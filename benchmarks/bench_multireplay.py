"""MULTIREPLAY — single-pass fan-out versus independent replays.

Measures the single-pass engine's claim directly: a ≥4-method
comparison replayed through one :class:`MultiReplayEngine` pass is
substantially cheaper than N independent :class:`ReplayEngine` runs,
with bit-identical results.

The comparison set is the streaming/placement design-space run (HASH
plus three FENNEL configurations).  Those methods never repartition,
so their entire cost *is* replay-path cost and the sharing is fully
visible.  Repartitioning methods spend most of their wall-clock inside
their own partitioner (METIS's periodic full-graph partitioning
dominates the paper's five-method set) — per-method work that no
sharing can remove — so the paper set's speedup is bounded by its
streaming share; the artifact records both sets.
"""

import time

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.render import ascii_table
from repro.core.multireplay import MultiReplayEngine
from repro.core.registry import PAPER_ORDER, make_method
from repro.core.replay import ReplayEngine
from repro.graph.snapshot import HOUR

K = 4

#: hash + three FENNEL load-penalty weights: a pure streaming comparison.
STREAMING_SET = [
    ("hash", {}),
    ("fennel", {}),
    ("fennel", {"gamma": 0.5}),
    ("fennel", {"gamma": 3.0}),
]
PAPER_SET = [(name, {}) for name in PAPER_ORDER]


def _methods(specs):
    return [make_method(name, K, seed=1, **kwargs) for name, kwargs in specs]


def _compare(log, specs, metric_window):
    t0 = time.perf_counter()
    singles = [
        ReplayEngine(log, m, metric_window=metric_window).run()
        for m in _methods(specs)
    ]
    t_single = time.perf_counter() - t0

    t0 = time.perf_counter()
    multi = MultiReplayEngine(log, _methods(specs), metric_window=metric_window).run()
    t_multi = time.perf_counter() - t0

    for s, m in zip(singles, multi):
        assert s.series.points == m.series.points
        assert s.events == m.events
        assert s.assignment.as_dict() == m.assignment.as_dict()
    return t_single, t_multi


@pytest.mark.benchmark(group="multireplay")
def test_single_pass_beats_independent_replays(benchmark, runner, out_dir):
    log = runner.workload.builder.log
    mw = 24 * HOUR

    def comparison():
        return _compare(log, STREAMING_SET, mw)

    t_single, t_multi = benchmark.pedantic(comparison, rounds=1, iterations=1)
    t_single_paper, t_multi_paper = _compare(log, PAPER_SET, mw)

    rows = [
        ("streaming (hash + 3x fennel)", len(STREAMING_SET),
         f"{t_single:.3f}", f"{t_multi:.3f}", f"{t_single / t_multi:.2f}x"),
        ("paper five", len(PAPER_SET),
         f"{t_single_paper:.3f}", f"{t_multi_paper:.3f}",
         f"{t_single_paper / t_multi_paper:.2f}x"),
    ]
    write_artifact(
        out_dir, "multireplay.txt",
        ascii_table(
            ["comparison set", "methods", "N x single (s)", "multi (s)", "speedup"],
            rows,
            title="MULTIREPLAY — one shared pass vs independent replays",
        ),
    )
