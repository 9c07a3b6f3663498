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


class GainBuckets:
    """FM gain-bucket priority structure (max gain first, FIFO within).

    The classic Fiduccia–Mattheyses replacement for a binary heap:
    vertices live in dense per-gain buckets over ``[-max_abs_gain,
    max_abs_gain]`` and the pop order is *identical* to a lazy-deletion
    heap ordered by ``(-gain, push counter)`` — the highest-gain bucket
    drains in push (FIFO) order, because each bucket's entries are
    appended in global push order and a key can only live in one bucket
    at a time.  Stale entries (vertex locked, or its current gain no
    longer matches the bucket it was pushed into) are the *caller's*
    job to skip at pop time, exactly as with the heap it replaces.

    Backend-neutral by nature: the structure is inherently sequential
    (every push/pop depends on the previous one), so both kernel
    backends share this one implementation.
    """

    __slots__ = ("_buckets", "_heads", "_offset", "_max")

    def __init__(self, max_abs_gain: int) -> None:
        if max_abs_gain < 0:
            raise ValueError(f"max_abs_gain must be >= 0, got {max_abs_gain}")
        self._offset = max_abs_gain
        size = 2 * max_abs_gain + 1
        self._buckets: List[List[int]] = [[] for _ in range(size)]
        self._heads = [0] * size       # per-bucket read cursor
        self._max = -1                 # highest possibly-nonempty bucket

    def push(self, v: int, gain: int) -> None:
        """Add an entry for ``v`` at ``gain``; |gain| must be within
        the bound given at construction."""
        idx = gain + self._offset
        self._buckets[idx].append(v)
        if idx > self._max:
            self._max = idx

    def pop(self):
        """``(vertex, gain)`` of the oldest entry in the highest
        nonempty bucket, or ``None`` when drained."""
        while self._max >= 0:
            bucket = self._buckets[self._max]
            head = self._heads[self._max]
            if head >= len(bucket):
                if bucket:
                    bucket.clear()
                self._heads[self._max] = 0
                self._max -= 1
                continue
            self._heads[self._max] = head + 1
            return bucket[head], self._max - self._offset
        return None


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
