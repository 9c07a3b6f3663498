"""Shard assignment: the vertex → shard map with shard-side accounting.

The assignment is the mutable object a replay maintains.  It stores
its shards densely, in an ``array('i')`` over a vertex numbering it
carries: ``ids`` maps a dense index to its raw vertex id, ``index``
(built on the first raw-id lookup) maps a raw id back, and
``shards[i]`` is the shard of dense vertex ``i``, ``-1`` while
unassigned.  The replay engine numbers every method's assignment like
the log it streams, so the accounting kernels read ``shards`` as is
and placement rules score dense ints (see
:meth:`ShardAssignment.place`).  Everything else uses the raw-id API
(``assign``, ``move``, ``get``, ...); :meth:`ShardAssignment.assign`
interns a raw id outside the numbering at its end.

It tracks per shard the vertex count and the activity weight so
balance-aware placement is O(1), and it validates shard indices
against k.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import InvalidPartitionError


class ShardAssignment:
    """Mutable vertex → shard map for a fixed number of shards ``k``."""

    __slots__ = ("k", "ids", "_index", "shards", "_counts", "_weights")

    def __init__(self, k: int, ids: Iterable[int] = ()):
        """Args:
            k: number of shards.
            ids: the vertex numbering, dense index → raw id; every
                vertex in it starts unassigned.
        """
        if k < 1:
            raise InvalidPartitionError(f"k must be >= 1, got {k}")
        self.k = k
        self.ids: List[int] = list(ids)
        if len(set(self.ids)) != len(self.ids):
            raise InvalidPartitionError("the vertex numbering repeats an id")
        self._index: Optional[Dict[int, int]] = None
        self.shards = array("i", [-1]) * len(self.ids)
        self._counts: List[int] = [0] * k
        self._weights: List[int] = [0] * k

    @property
    def index(self) -> Dict[int, int]:
        """Raw id → dense index, built on the first raw-id lookup (the
        replay engine's placement and accounting never make one)."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.ids)}
        return self._index

    # ------------------------------------------------------------------

    def __contains__(self, vertex: int) -> bool:
        i = self.index.get(vertex)
        return i is not None and self.shards[i] >= 0

    def __len__(self) -> int:
        return sum(self._counts)

    def get(self, vertex: int, default: Optional[int] = None) -> Optional[int]:
        i = self.index.get(vertex)
        if i is None or self.shards[i] < 0:
            return default
        return self.shards[i]

    def __getitem__(self, vertex: int) -> int:
        shard = self.get(vertex)
        if shard is None:
            raise KeyError(vertex)
        return shard

    def shard_of(self, vertex: int) -> Optional[int]:
        return self.get(vertex)

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(vertex, shard)`` of every assigned vertex, in dense order."""
        return ((v, s) for v, s in zip(self.ids, self.shards) if s >= 0)

    def vertices(self) -> Iterator[int]:
        return (v for v, _ in self.items())

    def as_dict(self) -> Dict[int, int]:
        return dict(self.items())

    # ------------------------------------------------------------------

    def assign(self, vertex: int, shard: int, weight: int = 0) -> None:
        """Place a *new* vertex; re-placing an assigned vertex is an error
        (use :meth:`move`).  A vertex outside the numbering is appended
        to it."""
        self._check_shard(shard)
        i = self.index.get(vertex)
        if i is None:
            i = len(self.ids)
            self.ids.append(vertex)
            self.index[vertex] = i
            self.shards.append(-1)
        elif self.shards[i] >= 0:
            raise InvalidPartitionError(f"vertex {vertex} already assigned")
        self.shards[i] = shard
        self._counts[shard] += 1
        self._weights[shard] += weight

    def place(self, i: int, shard: int) -> None:
        """Place the unassigned vertex with dense index ``i`` (the
        placement rules' :meth:`assign`, with no weight)."""
        self._check_shard(shard)
        if self.shards[i] >= 0:
            raise InvalidPartitionError(f"vertex {self.ids[i]} already assigned")
        self.shards[i] = shard
        self._counts[shard] += 1

    def move(self, vertex: int, shard: int, weight: int = 0) -> int:
        """Move an assigned vertex; returns its previous shard."""
        self._check_shard(shard)
        i = self.index.get(vertex)
        old = -1 if i is None else self.shards[i]
        if old < 0:
            raise InvalidPartitionError(f"vertex {vertex} not assigned")
        if old != shard:
            self.shards[i] = shard
            self._counts[old] -= 1
            self._counts[shard] += 1
            self._weights[old] -= weight
            self._weights[shard] += weight
        return old

    def add_weight(self, vertex: int, delta: int) -> None:
        """Account additional activity weight to the vertex's shard."""
        self._weights[self[vertex]] += delta

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.k:
            raise InvalidPartitionError(f"shard {shard} out of range [0, {self.k})")

    # ------------------------------------------------------------------

    @property
    def counts(self) -> Tuple[int, ...]:
        """Vertex count per shard."""
        return tuple(self._counts)

    @property
    def weights(self) -> Tuple[int, ...]:
        """Activity weight per shard."""
        return tuple(self._weights)

    def lightest_shard(self, by_weight: bool = False) -> int:
        """Index of the emptiest shard (count or weight)."""
        source = self._weights if by_weight else self._counts
        return min(range(self.k), key=lambda s: (source[s], s))

    def static_balance(self) -> float:
        """Paper Eq. 2 over vertex counts."""
        total = sum(self._counts)
        if total == 0:
            return 1.0
        return max(self._counts) * self.k / total

    def dynamic_balance(self) -> float:
        """Paper Eq. 2 over accumulated activity weights."""
        total = sum(self._weights)
        if total == 0:
            return 1.0
        return max(self._weights) * self.k / total

    def copy(self) -> "ShardAssignment":
        clone = ShardAssignment(self.k)
        clone.ids = list(self.ids)
        clone.shards = array("i", self.shards)
        clone._counts = list(self._counts)
        clone._weights = list(self._weights)
        return clone

    def validate(self, graph: Optional[object] = None) -> None:
        """Re-derive counters and check internal consistency.

        Args:
            graph: optional weight source with a ``vertex_weight(v)``
                method (e.g. a
                :class:`~repro.graph.digraph.WeightedDiGraph`).  When
                given, the per-shard weight cache is re-derived from it
                and checked too — catching drift from a :meth:`move`
                called with the wrong weight, which the count check
                alone cannot see.  Vertices unknown to the graph
                contribute zero weight (a repartition proposal may
                pre-place vertices the replay has not streamed yet).
        """
        counts = [0] * self.k
        for v, s in zip(self.ids, self.shards):
            if s == -1:
                continue
            if not 0 <= s < self.k:
                raise InvalidPartitionError(f"vertex {v} on invalid shard {s}")
            counts[s] += 1
        if counts != self._counts:
            raise InvalidPartitionError(
                f"count cache out of sync: {counts} != {self._counts}"
            )
        if graph is not None:
            weights = [0] * self.k
            for v, s in self.items():
                if v in graph:
                    weights[s] += graph.vertex_weight(v)
            if weights != self._weights:
                raise InvalidPartitionError(
                    f"weight cache out of sync: {weights} != {self._weights}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ShardAssignment(k={self.k}, |V|={len(self)}, counts={self._counts})"
