"""Bridge from experiment cells to the sharded-execution simulator.

After a cell's partition replay finishes, its final vertex → shard
assignment is fed through :class:`~repro.sharding.ShardedExecution`
under the grid's :class:`~repro.experiments.spec.ExecutionSpec`, and
the resulting throughput report is attached as ``cell.execution`` (on
a new cell: cells are frozen).

Every cell executes through the batched
:meth:`~repro.sharding.ShardedExecution.replay_columnar` path over the
:class:`~repro.graph.columnar.ColumnarLog` its replay engine streamed
(no ``Interaction`` boxing).  Replays are strict: a cell whose
assignment misses a replayed endpoint raises
:class:`~repro.errors.UnassignedVertexError` instead of silently
dropping load (the assignment came from replaying this very log, so a
miss is a bug, not a degenerate input).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Mapping

from repro.experiments.spec import ExecutionSpec
from repro.graph.columnar import ColumnarLog
from repro.sharding.coordinator import ShardedExecution
from repro.sharding.throughput import ThroughputReport


def execute_assignment(
    log: ColumnarLog,
    k: int,
    assignment: Mapping[int, int],
    execution: ExecutionSpec,
) -> ThroughputReport:
    """Replay ``log`` through ``k`` shards under ``assignment``;
    ``execution.max_rows`` caps the replay to the log tail."""
    lo = 0
    if execution.max_rows is not None:
        lo = max(0, len(log) - execution.max_rows)
    ex = ShardedExecution(k, assignment, execution.to_config())
    return ex.replay_columnar(
        log, lo, len(log),
        time_scale=execution.time_scale,
        arrival_rate=execution.arrival_rate,
        strict=True,
    )


def attach_execution(
    log: ColumnarLog, cells: Iterable, execution: ExecutionSpec
) -> List:
    """Copies of the :class:`~repro.experiments.results.CellResult`
    cells, each with its throughput report attached."""
    return [
        dataclasses.replace(cell, execution=execute_assignment(
            log, cell.key.k, cell.assignment, execution
        ))
        for cell in cells
    ]
