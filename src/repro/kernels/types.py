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
#: the seen-set, the per-window edge Counter and the CSR accumulators.
PACK_SHIFT = 32
PACK_MASK = 0xFFFFFFFF


class StreamState:
    """Cross-window replay-stream state owned by the engine.

    Tracks what has been streamed so far in dense-index space: the
    highest dense vertex index seen (interning is in first-appearance
    order, so ``index > max_vertex`` *is* the first-appearance test),
    the set of distinct directed edges, the flat endpoint arrays of
    those edges (the static-cut recount input) and which vertices are
    already known to be contracts (so kind upgrades are emitted at most
    once per vertex).
    """

    __slots__ = ("max_vertex", "edge_seen", "esrc", "edst", "contract_known")

    def __init__(self) -> None:
        self.max_vertex = -1
        self.edge_seen: set = set()
        self.esrc = array("q")
        self.edst = array("q")
        self.contract_known: set = set()

    @property
    def num_edges(self) -> int:
        return len(self.esrc)

    def record_new_edges(self, packed: List[int]) -> None:
        """Fold a window's new distinct non-self edges into the flat arrays."""
        esrc = self.esrc
        edst = self.edst
        for p in packed:
            esrc.append(p >> PACK_SHIFT)
            edst.append(p & PACK_MASK)


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
    """Everything one shared window pass precomputes for the engine.

    Attributes:
        first_seen: ``(dense, kind_code, timestamp)`` per vertex making
            its first log appearance in the window, in appearance order
            (src before dst within a row).
        upgrades: dense indices of already-known vertices observed with
            a CONTRACT kind code for the first time (graph kind
            upgrade), in row order.
        edge_weights: packed directed edge -> interaction count for the
            window, keys in first-occurrence order (the cumulative
            graph's adjacency insertion order depends on it).
        vertex_weights: dense index -> activity increment (src counts
            every row, dst only when distinct from src).
        new_edges: packed distinct non-self directed edges first seen in
            this window, in first-occurrence order.  Accounting derives
            its static-cut delta from these directly: the shard map is
            frozen while a window is accounted, so "first-occurrence
            row was cross-shard" and "the new edge is cross-shard" are
            the same predicate.
        placement_groups: ``(row_lo, row_hi, new_dense)`` per
            transaction bucket that introduced at least one first-seen
            vertex; ``new_dense`` lists those vertices in appearance
            order.  Buckets without new vertices never reach the
            placement loop at all.
    """

    __slots__ = (
        "first_seen", "upgrades", "edge_weights", "vertex_weights",
        "new_edges", "placement_groups",
    )

    def __init__(
        self,
        first_seen: List[Tuple[int, int, float]],
        upgrades: List[int],
        edge_weights: Dict[int, int],
        vertex_weights: Dict[int, int],
        new_edges: List[int],
        placement_groups: List[Tuple[int, int, Tuple[int, ...]]],
    ) -> None:
        self.first_seen = first_seen
        self.upgrades = upgrades
        self.edge_weights = edge_weights
        self.vertex_weights = vertex_weights
        self.new_edges = new_edges
        self.placement_groups = placement_groups
