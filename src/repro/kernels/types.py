"""Shared value types of the kernel layer.

These are backend-neutral: every backend consumes and produces the
same :class:`StreamState` / :class:`WindowBatch` shapes, so the engine
code is written once and the parity suite can compare backends
field-for-field.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

#: dense vertex indices fit 32 bits; a directed edge packs into one
#: int64 key as ``(src << 32) | dst`` — the unit of edge identity for
#: the stream's edge index, ``graph_batch``'s edge counts and the CSR
#: accumulators.
PACK_SHIFT = 32
PACK_MASK = 0xFFFFFFFF


class StreamState:
    """Cross-window replay-stream state owned by the engine.

    The cumulative graph of the rows streamed so far, in dense-index
    space — the replay's only one:

    * ``max_vertex``: the highest dense vertex index seen.  Interning
      is in first-appearance order, so ``index > max_vertex`` *is* the
      first-appearance test and the streamed vertices are exactly
      ``0..max_vertex``.
    * ``activity[v]``: the activity weight of dense vertex ``v`` (src
      counts every row, dst only when distinct from src).
    * ``esrc``/``edst``/``ecount``: the distinct directed non-self
      edges in first-occurrence order, and each one's interaction
      count.  The flat endpoint arrays are also the static-cut recount
      input.
    * ``edge_index``: packed ``(src << 32) | dst`` -> position of the
      edge in those arrays.
    """

    __slots__ = ("max_vertex", "activity", "edge_index", "esrc", "edst",
                 "ecount")

    def __init__(self) -> None:
        self.max_vertex = -1
        self.activity: List[int] = []
        self.edge_index: Dict[int, int] = {}
        self.esrc = array("q")
        self.edst = array("q")
        self.ecount: List[int] = []

    @property
    def num_vertices(self) -> int:
        return self.max_vertex + 1

    @property
    def num_edges(self) -> int:
        return len(self.esrc)


class WindowBatch:
    """What one shared window pass hands the engine besides the state.

    The pass folds the window's vertices, activity and edge counts into
    the :class:`StreamState`; the batch carries only the per-window
    inputs of the method fan-out.

    Attributes:
        new_edges: packed distinct non-self directed edges first seen in
            this window, in first-occurrence order.  Accounting derives
            its static-cut delta from these directly: the shard map is
            frozen while a window is accounted, so "first-occurrence
            row was cross-shard" and "the new edge is cross-shard" are
            the same predicate.
        placement_groups: ``(row_lo, row_hi, new_dense)`` per
            transaction bucket that introduced at least one first-seen
            vertex; ``new_dense`` lists those vertices in appearance
            order (src before dst within a row).  Buckets without new
            vertices never reach the placement loop at all.
    """

    __slots__ = ("new_edges", "placement_groups")

    def __init__(
        self,
        new_edges: List[int],
        placement_groups: List[Tuple[int, int, Tuple[int, ...]]],
    ) -> None:
        self.new_edges = new_edges
        self.placement_groups = placement_groups
