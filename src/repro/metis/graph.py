"""Compact CSR work-graph for the multilevel partitioner.

The partitioner operates on vertices renumbered to ``0..n-1`` with
adjacency in CSR (compressed sparse row) layout — the same representation
METIS uses — because the coarsening and refinement inner loops touch
every edge many times and dict-of-dict graphs are too slow for that.

``CSRGraph`` is immutable after construction: nothing writes to its
arrays once a constructor has returned them, and nothing may.  The
per-graph memos (:meth:`CSRGraph.memo`) depend on that rule: a result
computed from a graph's arrays stays valid for as long as the graph
lives.  ``from_undirected`` bridges from the domain-level
:class:`~repro.graph.undirected.UndirectedView` and keeps the
original-vertex-id mapping.

One directed → undirected collapse loop (:func:`_collapse`) serves
:meth:`CSRGraph.from_digraph`, :meth:`CSRGraph.from_graph_batch` (the
KL period graph, and the cold P-METIS/R-METIS/TR-METIS one via
:func:`period_csr`) and :meth:`CSRGraph.from_stream` (the replay's
stream state, the cumulative graph cold METIS partitions).

The warm paths read the log's dense vertex indices straight into CSR
arrays, each adjacency in the order its pairs first occur in either
direction:

* :meth:`CSRGraph.from_columnar` builds the undirected interaction
  graph of any row range ``[start, stop)`` in one pass — the warm
  R-METIS / TR-METIS reduced-window input;
* :class:`ColumnarCSRBuilder` maintains the *cumulative* graph
  incrementally: each :meth:`~ColumnarCSRBuilder.advance` call folds in
  only the rows appended since the previous call, so periodic
  full-graph repartitioning pays O(new rows) per period instead of
  O(all rows) — the warm-started METIS hot path.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import kernels
from repro.errors import PartitionError
from repro.graph.undirected import UndirectedView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.graph.columnar import ColumnarLog


@dataclasses.dataclass
class CSRGraph:
    """Undirected weighted graph in CSR form.

    Attributes:
        xadj: index into adjncy/adjwgt; neighbors of v are
            ``adjncy[xadj[v]:xadj[v+1]]`` (length n+1).
        adjncy: concatenated neighbor lists (each undirected edge appears
            twice, once per endpoint).
        adjwgt: edge weights, parallel to adjncy.
        vwgt: vertex weights (length n).
        orig_ids: optional original vertex id per CSR index.
    """

    xadj: List[int]
    adjncy: List[int]
    adjwgt: List[int]
    vwgt: List[int]
    orig_ids: Optional[List[int]] = None

    @property
    def num_vertices(self) -> int:
        return len(self.vwgt)

    @property
    def num_edges(self) -> int:
        return len(self.adjncy) // 2

    @property
    def total_vertex_weight(self) -> int:
        return sum(self.vwgt)

    @property
    def total_edge_weight(self) -> int:
        """Sum of undirected edge weights (each edge counted once)."""
        return sum(self.adjwgt) // 2

    def neighbors(self, v: int) -> Iterator[Tuple[int, int]]:
        """Yield (neighbor, edge weight) pairs of v."""
        for i in range(self.xadj[v], self.xadj[v + 1]):
            yield self.adjncy[i], self.adjwgt[i]

    def degree(self, v: int) -> int:
        return self.xadj[v + 1] - self.xadj[v]

    def weighted_degree(self, v: int) -> int:
        return sum(self.adjwgt[self.xadj[v] : self.xadj[v + 1]])

    def memo(self, name: str) -> Dict:
        """The graph's memo dict ``name``, created empty on first use:
        the bisections :mod:`repro.metis.bisect` computed on the graph
        (``"bisect"``) and the induced subgraphs
        :func:`~repro.metis.kway.recursive_bisection` cut from it
        (``"halves"``).

        Memos are plain attributes, as the numpy backend's
        ``_np_csr_cache`` is, not dataclass fields: they stay out of
        ``==``, ``repr`` and ``dataclasses.asdict``, and they die with
        the graph.  A memo entry is exact only because the arrays never
        change; its key must name every other input of the computation.
        """
        return self.__dict__.setdefault("_memos", {}).setdefault(name, {})

    # ------------------------------------------------------------------

    @classmethod
    def from_undirected(cls, und: UndirectedView) -> "CSRGraph":
        """Build a CSR graph from an :class:`UndirectedView`.

        Vertices are renumbered in iteration order; the original ids are
        retained in ``orig_ids`` so partition vectors can be mapped back.
        """
        index: Dict[int, int] = {}
        orig_ids: List[int] = []
        for v in und.vertices():
            index[v] = len(orig_ids)
            orig_ids.append(v)
        n = len(orig_ids)
        xadj: List[int] = [0] * (n + 1)
        adjncy: List[int] = []
        adjwgt: List[int] = []
        vwgt: List[int] = [0] * n
        for v, idx in index.items():
            vwgt[idx] = und.vertex_weight(v)
        for idx, v in enumerate(orig_ids):
            for nbr, w in und.adjacency(v).items():
                adjncy.append(index[nbr])
                adjwgt.append(w)
            xadj[idx + 1] = len(adjncy)
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt, orig_ids=orig_ids)

    @classmethod
    def from_digraph(cls, digraph) -> "CSRGraph":
        """Collapse a ``WeightedDiGraph`` straight to CSR, renumbering
        vertices in ``digraph.vertices()`` order; vertex weights are
        activity floored at 1.  The KL repartitioner's tie-breaks depend
        on the adjacency order :func:`_collapse` keeps."""
        orig_ids = list(digraph.vertices())
        index = {v: i for i, v in enumerate(orig_ids)}
        vwgt = [max(1, digraph.vertex_weight(v)) for v in orig_ids]
        succ = [
            {index[d]: w for d, w in digraph.successors(v).items()}
            for v in orig_ids
        ]
        xadj, adjncy, adjwgt = _collapse(succ)
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt, orig_ids=orig_ids)

    @classmethod
    def from_graph_batch(
        cls,
        first_seen,
        edge_weights,
        vertex_weights,
        vertex_id,
    ) -> "CSRGraph":
        """Collapse one ``graph_batch`` aggregate straight to CSR.

        Equivalent to ``build_graph_columnar`` → :meth:`from_digraph`
        without materialising the ``WeightedDiGraph``: ``first_seen``
        fixes the vertex order (the digraph's ``add_vertex`` order) and
        ``edge_weights``'s packed-pair first-occurrence order fixes
        each successor order (the ``add_edge`` order).  Vertex weights
        are ``vertex_weights`` (dense index -> activity) floored at 1,
        so an empty mapping gives unit weights.  ``vertex_id`` maps
        dense indices to the raw ids recorded in ``orig_ids``.
        """
        index: Dict[int, int] = {}
        orig_ids: List[int] = []
        vwgt: List[int] = []
        for r, (dense, _kind, _ts) in enumerate(first_seen):
            index[dense] = r
            orig_ids.append(vertex_id(dense))
            vwgt.append(max(1, vertex_weights.get(dense, 0)))
        succ: List[Dict[int, int]] = [{} for _ in range(len(orig_ids))]
        shift, mask = kernels.PACK_SHIFT, kernels.PACK_MASK
        for packed, w in edge_weights.items():
            succ[index[packed >> shift]][index[packed & mask]] = w
        xadj, adjncy, adjwgt = _collapse(succ)
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt, orig_ids=orig_ids)

    @classmethod
    def from_stream(cls, state: "kernels.StreamState", vertex_id) -> "CSRGraph":
        """Collapse a replay's stream state, with unit vertex weights.

        The cold METIS input, in O(V + E): the digraph of the streamed
        rows has the dense indices as its vertices, in order, and each
        successor order is the first-occurrence order the state keeps
        its edges in.  ``vertex_id`` maps dense indices to raw ids.
        """
        n = state.num_vertices
        succ: List[Dict[int, int]] = [{} for _ in range(n)]
        for s, d, w in zip(state.esrc, state.edst, state.ecount):
            succ[s][d] = w
        xadj, adjncy, adjwgt = _collapse(succ)
        return cls(
            xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=[1] * n,
            orig_ids=[vertex_id(v) for v in range(n)],
        )

    @classmethod
    def from_columnar(
        cls,
        log: "ColumnarLog",
        start: int = 0,
        stop: Optional[int] = None,
        vertex_weights: str = "unit",
    ) -> "CSRGraph":
        """Build the undirected interaction graph of log rows [start, stop).

        Reads the dense src/dst index columns directly — no
        ``Interaction`` boxing, no ``WeightedDiGraph`` and no
        ``collapse_to_undirected`` pass.  Semantics match that pipeline:
        edge weight u–v is the number of interactions between u and v in
        either direction, self-interactions contribute no edge, and
        ``vertex_weights`` is ``"unit"`` (all 1 — the paper's METIS
        setup) or ``"activity"`` (interaction appearances, floored at 1;
        a self-interaction counts its endpoint once).

        Vertices are the ones appearing in the range, numbered in
        first-appearance order; ``orig_ids`` maps back to raw vertex
        ids.  For ``start == 0`` the numbering coincides with the log's
        dense interning order.
        """
        _validate_vertex_weights(vertex_weights)  # fail before the scan
        if stop is None:
            stop = len(log)
        # batch kernel: the bucketing runs at distinct-row level in the
        # active backend; local numbering and adjacency order are
        # bit-identical to the old per-row fold (the kernel contract)
        xadj, adjncy, adjwgt, vwgt, dense_ids = kernels.active().csr_from_window(
            log.src_indices(), log.dst_indices(), start, stop, vertex_weights)
        orig_ids = [log.vertex_id(dense) for dense in dense_ids]
        return cls(
            xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt,
            orig_ids=orig_ids,
        )

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Sequence[Tuple[int, int, int]],
        vwgt: Optional[Sequence[int]] = None,
    ) -> "CSRGraph":
        """Build from an undirected edge list [(u, v, w), ...].

        Parallel edges are merged by weight; self-loops are rejected.
        Used by the tests and by the coarsener.
        """
        merged: Dict[Tuple[int, int], int] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop not allowed: {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + w

        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), w in merged.items():
            adj[u].append((v, w))
            adj[v].append((u, w))

        xadj = [0] * (n + 1)
        adjncy: List[int] = []
        adjwgt: List[int] = []
        for v in range(n):
            for nbr, w in adj[v]:
                adjncy.append(nbr)
                adjwgt.append(w)
            xadj[v + 1] = len(adjncy)
        weights = list(vwgt) if vwgt is not None else [1] * n
        if len(weights) != n:
            raise ValueError(f"vwgt length {len(weights)} != n {n}")
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=weights)

    # ------------------------------------------------------------------

    def cut_of(self, part: Sequence[int]) -> int:
        """Total weight of edges whose endpoints are in different parts."""
        return kernels.active().cut_value(self, part)

    def part_weights(self, part: Sequence[int], k: int) -> List[int]:
        """Vertex-weight sum per part."""
        return kernels.active().part_weights(self, part, k)


def _collapse(succ: List[Dict[int, int]]) -> Tuple[List[int], List[int], List[int]]:
    """The one directed → undirected collapse, to ``(xadj, adjncy, adjwgt)``.

    ``succ[s]`` maps each successor ``d`` of vertex ``s`` to the weight
    of ``s → d``, in first-occurrence order.  Visiting vertices in
    order, the first encounter of a pair merges both directions'
    weights into one undirected edge; self-loops are dropped (a
    self-call never crosses shards).  Equal to
    ``collapse_to_undirected`` + :meth:`CSRGraph.from_undirected`.
    """
    n = len(succ)
    adj: List[Dict[int, int]] = [{} for _ in range(n)]
    for s in range(n):
        adj_s = adj[s]
        for d, w in succ[s].items():
            if d == s or d in adj_s:
                continue  # a self-loop, or merged when d was visited
            total = w + succ[d].get(s, 0)
            adj_s[d] = total
            adj[d][s] = total
    xadj: List[int] = [0] * (n + 1)
    adjncy: List[int] = []
    adjwgt: List[int] = []
    for v in range(n):
        adjncy.extend(adj[v])
        adjwgt.extend(adj[v].values())
        xadj[v + 1] = len(adjncy)
    return xadj, adjncy, adjwgt


def period_csr(
    log: "ColumnarLog", start: int, stop: int, batch: Optional[tuple] = None,
) -> CSRGraph:
    """CSR of the digraph of log rows ``[start, stop)``, with unit vertex
    weights: the period graph cold P-METIS/R-METIS/TR-METIS partition.

    Equal to ``CSRGraph.from_digraph(build_graph_columnar(log, start,
    stop))`` with every vertex weight set to 1, which is also what
    ``collapse_to_undirected(..., unit_vertex_weights=True)`` →
    :meth:`CSRGraph.from_undirected` gives; built without the digraph,
    through the ``graph_batch`` → :meth:`CSRGraph.from_graph_batch`
    bridge KL uses.  ``batch`` is that ``graph_batch`` aggregate of the
    rows when the caller already has it (the replay makes one per row
    range per window, for KL and R-METIS alike).
    """
    if batch is None:
        batch = kernels.active().graph_batch(
            log.timestamps(), log.src_indices(), log.dst_indices(),
            log.src_kind_codes(), log.dst_kind_codes(), start, stop)
    first_seen, _upgrades, edge_weights, _activity = batch
    # no activity: every vertex weight floors to 1
    return CSRGraph.from_graph_batch(first_seen, edge_weights, {}, log.vertex_id)


class ColumnarCSRBuilder:
    """Incrementally accumulates a ColumnarLog's *cumulative* graph.

    The periodic full-graph METIS method partitions the cumulative
    interaction graph every period.  Rebuilding that graph from scratch
    costs O(total rows) per period; this builder keeps per-vertex
    adjacency accumulators keyed by the log's dense indices and folds in
    only the rows appended since the last :meth:`advance`, so a period
    costs O(new rows) plus an O(V + E) :meth:`snapshot` to emit the
    immutable CSR arrays the partitioner wants.

    Vertex v of every snapshot is dense index v of the log, so snapshots
    of a growing log are *prefix-stable*: an earlier snapshot's vertices
    keep their indices in every later snapshot.  Warm-started
    repartitioning (``part_graph(warm_start=...)``) and the coarsening
    ladder cache both rely on exactly this property.
    """

    __slots__ = ("log", "_upto", "_acc")

    def __init__(self, log: "ColumnarLog") -> None:
        self.log = log
        self._upto = 0                       # rows [0, _upto) consumed
        # backend accumulator captured at construction: flat packed-pair
        # folding instead of per-row dict updates (pure backend keeps
        # the reference dict-of-dicts; all emit identical snapshots)
        self._acc = kernels.active().CSRAccumulator()

    @property
    def rows_consumed(self) -> int:
        return self._upto

    @property
    def num_vertices(self) -> int:
        return self._acc.num_vertices

    def advance(self, upto: Optional[int] = None) -> int:
        """Fold in log rows [rows_consumed, upto); returns rows added."""
        if upto is None:
            upto = len(self.log)
        if upto < self._upto:
            raise ValueError(
                f"cannot rewind: already consumed {self._upto} rows, asked {upto}"
            )
        if upto > len(self.log):
            # reject before touching the accumulators: failing mid-loop
            # would leave rows half-folded and a retry would double-count
            raise ValueError(
                f"upto {upto} beyond log length {len(self.log)}"
            )
        self._acc.advance(
            self.log.src_indices(), self.log.dst_indices(), self._upto, upto)
        added = upto - self._upto
        self._upto = upto
        return added

    def snapshot(self, vertex_weights: str = "unit") -> CSRGraph:
        """Emit the cumulative graph of all consumed rows as a CSRGraph."""
        _validate_vertex_weights(vertex_weights)
        xadj, adjncy, adjwgt, vwgt, n = self._acc.snapshot(vertex_weights)
        # one bulk copy instead of n per-index method calls: dense
        # indices 0..n-1 are exactly the first n interned ids
        orig_ids = list(self.log.vertex_ids()[:n])
        return CSRGraph(
            xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt,
            orig_ids=orig_ids,
        )


def _validate_vertex_weights(vertex_weights: str) -> None:
    if vertex_weights not in ("unit", "activity"):
        raise PartitionError(
            f"vertex_weights must be 'unit' or 'activity', got {vertex_weights!r}"
        )
