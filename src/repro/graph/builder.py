"""Interactions and the graphs built from them.

An *interaction* is a single caller → callee event: a currency transfer
from an account, a contract activation, an internal call or an internal
transfer (paper §II-B).  A transaction produces one or more interactions
(one per message call in its trace).

:class:`GraphBuilder` holds the one log a generated history keeps: a
time-ordered :class:`~repro.graph.columnar.ColumnarLog`.  Graphs are
derived from its rows on demand — :func:`build_graph_columnar` of
rows ``[lo, hi)`` is the cumulative graph (what the full-graph METIS
method partitions) over ``[0, hi)`` and a reduced window graph (what
R-METIS / TR-METIS partition) over a
:meth:`~repro.graph.columnar.ColumnarLog.window_bounds` range.

Weight conventions (paper §II-B/§II-C):

* each interaction increments the weight of edge (src, dst) by one;
* each interaction increments the activity weight of *both* endpoints by
  one — vertex weights "capture the frequency that accounts, contracts,
  and their interactions appear in the blockchain".
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.graph.digraph import VertexKind, WeightedDiGraph


@dataclasses.dataclass(frozen=True)
class Interaction:
    """A single caller → callee event derived from a transaction trace.

    Attributes:
        timestamp: seconds since the chain's genesis (float for window
            arithmetic; the workload generator produces monotonically
            non-decreasing timestamps).
        src: caller vertex id (account or contract address).
        dst: callee vertex id.
        src_kind: what the caller is.
        dst_kind: what the callee is.
        tx_id: identifier of the enclosing transaction; interactions from
            the same transaction share a tx_id, which the metric code
            uses to count *transactions* (not calls) that span shards.
    """

    timestamp: float
    src: int
    dst: int
    src_kind: VertexKind = VertexKind.ACCOUNT
    dst_kind: VertexKind = VertexKind.ACCOUNT
    tx_id: int = -1


class GraphBuilder:
    """Holds the interaction log of a generated history.

    :attr:`log` is an append-only, time-ordered
    :class:`~repro.graph.columnar.ColumnarLog`; feeding an out-of-order
    interaction raises ValueError.  Read the log's columns, window
    bounds and length directly, and build graphs of its rows with
    :func:`build_graph_columnar`.
    """

    def __init__(self) -> None:
        from repro.graph.columnar import ColumnarLog

        self.log = ColumnarLog()

    def add(self, interaction: Interaction) -> None:
        """Append one interaction to the log."""
        self.log.append(interaction)

    @property
    def graph(self) -> WeightedDiGraph:
        """The cumulative graph of the whole log, built on each read."""
        return build_graph_columnar(self.log)


def build_graph(interactions: Iterable[Interaction]) -> WeightedDiGraph:
    """Build a standalone graph from an interaction iterable.

    The boxed per-row fold: the reference the tests hold
    :func:`build_graph_columnar` to.
    """
    g = WeightedDiGraph()
    for it in interactions:  # reprolint: disable=RL010 -- boxed reference path; build_graph_columnar is the batch sibling
        g.add_vertex(it.src, it.src_kind, 0, it.timestamp)
        g.add_vertex(it.dst, it.dst_kind, 0, it.timestamp)
        g.add_vertex_weight(it.src, 1)
        if it.dst != it.src:
            g.add_vertex_weight(it.dst, 1)
        g.add_edge(it.src, it.dst, 1)
    return g


_KINDS: Tuple[VertexKind, ...] = tuple(VertexKind)


def build_graph_columnar(log, start: int = 0,
                         stop: Optional[int] = None) -> WeightedDiGraph:
    """Build a standalone graph of rows ``[start, stop)`` of a columnar log.

    Batch sibling of :func:`build_graph` over a
    :class:`~repro.graph.columnar.ColumnarLog`: the per-row
    aggregation runs in the active kernel backend and the graph is
    grown in bulk, with vertex and adjacency insertion orders identical
    to the per-row fold (no Interaction boxing).
    """
    from repro import kernels

    g = WeightedDiGraph()
    if stop is None:
        stop = len(log)
    if stop <= start:
        return g
    first_seen, upgrades, edge_weights, vertex_weights = (
        kernels.active().graph_batch(
            log.timestamps(), log.src_indices(), log.dst_indices(),
            log.src_kind_codes(), log.dst_kind_codes(), start, stop))
    vertex_id = log.vertex_id
    for dense, kind_code, ts in first_seen:
        g.add_vertex(vertex_id(dense), _KINDS[kind_code], 0, ts)
    for dense in upgrades:
        g.add_vertex(vertex_id(dense), VertexKind.CONTRACT)
    for packed, weight in edge_weights.items():
        g.add_edge(vertex_id(packed >> kernels.PACK_SHIFT),
                   vertex_id(packed & kernels.PACK_MASK), weight)
    for dense, delta in vertex_weights.items():
        g.add_vertex_weight(vertex_id(dense), delta)
    return g


def group_by_transaction(
    interactions: Iterable[Interaction],
) -> Iterator[Tuple[int, List[Interaction]]]:
    """Group a time-ordered interaction stream by tx_id.

    Interactions of one transaction are contiguous in the stream (they
    share a timestamp and are emitted together by the trace code), so
    grouping is a single pass.
    """
    current_id: Optional[int] = None
    bucket: List[Interaction] = []
    for it in interactions:  # reprolint: disable=RL010 -- input is a boxed Interaction iterable, no columnar form exists here
        if current_id is None:
            current_id = it.tx_id
        if it.tx_id != current_id:
            yield current_id, bucket
            current_id = it.tx_id
            bucket = []
        bucket.append(it)
    if bucket:
        assert current_id is not None
        yield current_id, bucket
