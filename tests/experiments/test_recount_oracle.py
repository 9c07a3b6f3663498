"""Every method's cells against a naive recount, on random streams.

``perfbench/checks.py`` recounts what a cell reports (coverage and
range of the assignment, one point per window, the static cut and
balance, cumulative moves, 2PC transaction counts) from the raw rows
with plain loops, never touching the engine, the kernels or the store.
This property runs it over random logs replayed through
:func:`~repro.experiments.parallel.replay_chunk`, the sweep's worker
body.  Raw vertex ids are sparse, so a raw/dense mix-up cannot pass.
"""

import importlib.util
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import replay_chunk
from repro.experiments.spec import CellKey, ExecutionSpec, MethodSpec
from repro.graph.builder import Interaction

_CHECKS_PATH = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS_PATH)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

METHODS = (
    "hash",
    "fennel",
    "kl?period=3",
    "metis?period=3",
    "p-metis?period=3",
    "tr-metis?consecutive=1&cooldown=1&max_interval=3",
    "metis?period=3&warm=true",
    "p-metis?period=3&warm=true",
    "tr-metis?consecutive=1&cooldown=1&max_interval=3&warm=true",
)


@st.composite
def sparse_logs(draw):
    """Time-ordered rows over sparse raw ids, a few rows per transaction."""
    n_vertices = draw(st.integers(min_value=1, max_value=24))
    n_tx = draw(st.integers(min_value=1, max_value=40))
    rows = []
    ts = 0.0
    for tx in range(n_tx):
        ts += draw(st.floats(min_value=0.0, max_value=4.0))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            src, dst = draw(st.tuples(st.integers(0, n_vertices - 1),
                                      st.integers(0, n_vertices - 1)))
            rows.append(Interaction(timestamp=ts, src=10_000 + 7919 * src,
                                    dst=10_000 + 7919 * dst, tx_id=tx))
    return rows


@given(
    rows=sparse_logs(),
    k=st.integers(min_value=2, max_value=4),
    window=st.integers(min_value=1, max_value=20),
    two_pc=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_cells_match_a_naive_recount(rows, k, window, two_pc):
    keys = [CellKey(MethodSpec.parse(m), k) for m in METHODS]
    execution = ExecutionSpec.parse("mode=2pc") if two_pc else None
    cells = replay_chunk(rows, float(window), keys, execution)
    facts = checks.LogFacts(rows)
    failed = {
        cell.key.label: problems
        for cell in cells
        if (problems := checks.check_cell(cell, facts, float(window)))
    }
    assert not failed
