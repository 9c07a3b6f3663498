"""The replay engine: stream history → placement → metrics → repartition.

This is the experimental harness of the paper.  It consumes the
time-ordered interaction log (from the workload generator or a trace
file), maintains the live shard assignment, and per metric window
(four hours in the paper):

1. groups the window's interactions by transaction and places
   newly-appearing vertices via the method's placement rule;
2. folds the window into the stream state (the dense cumulative
   graph: vertices, activity, distinct edges and their counts) and the
   static-metric counters, and accumulates per-window dynamic-metric
   counters;
3. records a :class:`~repro.metrics.series.MetricPoint`;
4. offers the method a chance to repartition; if it does, applies the
   proposal, counts the moves and resets the period buffer.

Static metrics are maintained incrementally (recomputed from scratch
only at repartitionings), so a full replay is O(interactions + windows
+ repartitions × |E|) rather than O(windows × |E|).

Each method's :class:`~repro.core.assignment.ShardAssignment` is
numbered like the log, so its dense ``shards`` array is what placement
scores and the accounting kernels read, and :func:`apply_proposal`
finds a proposed vertex's shard with one lookup in its ``index``.

The streaming loop itself lives in
:mod:`repro.core.multireplay`, which fans one pass over the log out to
any number of methods; :class:`ReplayEngine` is its single-method
facade.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Mapping, Optional, Sequence

from repro.core.assignment import ShardAssignment
from repro.core.base import PartitionMethod, RepartitionEvent
from repro.graph.builder import Interaction, build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import WeightedDiGraph
from repro.graph.snapshot import METRIC_WINDOW
from repro.metrics.series import MetricSeries


@dataclasses.dataclass
class ReplayResult:
    """Everything a replay produced.

    ``graph`` is the cumulative blockchain graph of the replayed rows
    ``[0, log_hi)`` of ``log``, built on first access (each result
    builds its own).  It is ``None`` for a result rebuilt from a
    :class:`~repro.experiments.results.CellResult`, which has no log.
    """

    method: str
    k: int
    series: MetricSeries
    assignment: ShardAssignment
    events: List[RepartitionEvent]
    log: Optional[ColumnarLog] = dataclasses.field(
        default=None, repr=False, compare=False)
    log_hi: int = 0

    @functools.cached_property
    def graph(self) -> Optional[WeightedDiGraph]:
        if self.log is None:
            return None
        return build_graph_columnar(self.log, 0, self.log_hi)

    @property
    def total_moves(self) -> int:
        return sum(e.moves for e in self.events)

    @property
    def num_repartitions(self) -> int:
        return sum(1 for e in self.events if e.moves or e.reassigned)


def apply_proposal(
    proposal: Mapping[int, int],
    assignment: ShardAssignment,
    activity: Sequence[int],
) -> int:
    """Apply a repartition proposal; returns the move count.

    A moved vertex carries its activity weight to the new shard:
    ``activity[i]`` for dense index ``i`` of the assignment's numbering
    (the engine numbers it like its log, so this is the stream state's
    activity), 0 for a vertex not streamed yet.
    """
    index = assignment.index
    shards = assignment.shards
    streamed = len(activity)
    moves = 0
    for v, shard in proposal.items():
        i = index.get(v)
        if i is None or shards[i] < 0:
            # method proposed a vertex the replay has not seen yet;
            # treat as a fresh placement (no move)
            assignment.assign(v, shard)
        elif shards[i] != shard:
            assignment.move(v, shard, weight=activity[i] if i < streamed else 0)
            moves += 1
    return moves


class ReplayEngine:
    """Replays an interaction log through one partitioning method.

    This is the single-method special case of
    :class:`~repro.core.multireplay.MultiReplayEngine`: :meth:`run`
    delegates to the shared streaming loop with a one-method fan-out,
    so both paths stay bit-identical by construction.
    """

    def __init__(
        self,
        interactions: Sequence[Interaction],
        method: PartitionMethod,
        metric_window: float = METRIC_WINDOW,
        end_ts: Optional[float] = None,
    ):
        """Args:
            interactions: the full, time-ordered interaction log: a
                :class:`~repro.graph.columnar.ColumnarLog` (e.g.
                ``workload_result.builder.log`` or a loaded trace) or a
                plain sequence of interactions.
            method: the partitioning method under study.
            metric_window: sampling window width in seconds (paper: 4h).
            end_ts: replay horizon; defaults to just past the last
                interaction.
        """
        from repro.core.multireplay import MultiReplayEngine

        self.method = method
        self.k = method.k
        self._engine = MultiReplayEngine(
            interactions, [method], metric_window=metric_window, end_ts=end_ts)

    # ------------------------------------------------------------------

    def run(self) -> ReplayResult:
        return self._engine.run()[0]


def replay_method(
    interactions: Sequence[Interaction],
    method: PartitionMethod,
    metric_window: float = METRIC_WINDOW,
) -> ReplayResult:
    """Convenience one-call replay."""
    return ReplayEngine(interactions, method, metric_window=metric_window).run()
