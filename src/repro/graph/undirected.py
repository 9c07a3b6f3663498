"""Collapse the directed blockchain graph to a weighted undirected graph.

Graph partitioners (our METIS-style multilevel partitioner, spectral
bisection, KL) operate on undirected graphs: an edge cut is symmetric —
a multi-shard transaction is multi-shard no matter which endpoint calls
which.  The collapse rule follows the paper implicitly: the undirected
edge weight between u and v is the sum of the directed weights u→v and
v→u; self-loops are dropped (a self-call can never cross shards).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import VertexNotFoundError
from repro.graph.digraph import WeightedDiGraph


class UndirectedView:
    """A weighted undirected graph stored as symmetric adjacency dicts.

    Built once from a :class:`WeightedDiGraph` and then immutable in
    spirit (partitioners only read it).  Vertex weights are copied from
    the directed graph's activity weights, with a floor of 1 so that
    balance constraints remain meaningful for never-active vertices.
    """

    __slots__ = ("_adj", "_vweight", "_total_edge_weight")

    def __init__(self) -> None:
        self._adj: Dict[int, Dict[int, int]] = {}
        self._vweight: Dict[int, int] = {}
        self._total_edge_weight: int = 0  # sum over undirected edges (once)

    # construction ------------------------------------------------------

    def _add_vertex(self, v: int, weight: int) -> None:
        if v not in self._adj:
            self._adj[v] = {}
            self._vweight[v] = weight

    def _add_edge(self, u: int, v: int, weight: int) -> None:
        if u == v:
            return
        adj_u = self._adj[u]
        if v in adj_u:
            adj_u[v] += weight
            self._adj[v][u] += weight
        else:
            adj_u[v] = weight
            self._adj[v][u] = weight
        self._total_edge_weight += weight

    # queries -----------------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self._adj.values()) // 2

    @property
    def total_edge_weight(self) -> int:
        return self._total_edge_weight

    @property
    def total_vertex_weight(self) -> int:
        return sum(self._vweight.values())

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Each undirected edge once, as (u, v, w) with u < v."""
        for u, adj in self._adj.items():
            for v, w in adj.items():
                if u < v:
                    yield u, v, w

    def adjacency(self, v: int) -> Dict[int, int]:
        try:
            return self._adj[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def vertex_weight(self, v: int) -> int:
        try:
            return self._vweight[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: int) -> int:
        return len(self.adjacency(v))

    def weighted_degree(self, v: int) -> int:
        return sum(self.adjacency(v).values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"UndirectedView(|V|={self.num_vertices}, |E|={self.num_edges})"


def collapse_to_undirected(
    digraph: WeightedDiGraph,
    unit_vertex_weights: bool = False,
) -> UndirectedView:
    """Collapse a directed blockchain graph to its undirected view.

    Vertex weights are activity floored at 1, so that vertices that
    never initiated or received activity still count for balance
    purposes, matching METIS's convention that unweighted vertices
    have weight 1.

    ``unit_vertex_weights`` sets every vertex weight to 1 — this is the
    paper's METIS setup ("assigning weights to the **edges** of the
    graph"; vertices stay unweighted), and is precisely what makes the
    post-attack dynamic-balance anomaly possible: METIS balances vertex
    *counts* while all the live vertices cluster into one shard.
    """
    und = UndirectedView()
    for v in digraph.vertices():
        if unit_vertex_weights:
            und._add_vertex(v, 1)
        else:
            und._add_vertex(v, max(1, digraph.vertex_weight(v)))
    for src, dst, w in digraph.edges():
        if dst in und._adj[src]:
            # the reverse edge was already merged when we saw dst → src
            continue
        reverse = digraph.successors(dst).get(src, 0)
        und._add_edge(src, dst, w + reverse)
    return und
