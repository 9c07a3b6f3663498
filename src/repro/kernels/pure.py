"""Pure-python reference kernels — the bit-identity oracle.

Every function here is a straight per-row / per-edge transliteration of
the loop it replaced, kept deliberately simple: no bulk counting, no
slicing tricks.  ``__all__`` is the kernel surface every backend
exposes by name.  The numpy backend's own forms must reproduce these
outputs *exactly* (including dict key order, which the cumulative
graph's adjacency insertion order and therefore cold METIS results
depend on); ``tests/kernels/test_parity.py`` holds them to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernels.types import PACK_MASK, PACK_SHIFT, StreamState, WindowBatch

__all__ = [
    "CSRAccumulator", "account_window", "boundary_list", "conn_matrix",
    "csr_from_window", "cut_value", "gain_vector", "graph_batch",
    "hem_matching", "kl_proposals", "max_index", "max_weighted_degree",
    "part_weights", "static_cut_count", "unassigned_list", "window_pass",
]

#: kind-code of VertexKind.CONTRACT in the columnar byte columns
#: (enum definition order: ACCOUNT=0, CONTRACT=1)
CONTRACT_CODE = 1


# ----------------------------------------------------------------------
# replay stream


def window_pass(ts, src, dst, tx, skind, dkind, lo: int, hi: int,
                state: StreamState) -> WindowBatch:
    """Shared per-window pass: first-seens, edge/vertex counts, new edges."""
    edge_seen = state.edge_seen
    contract_known = state.contract_known
    cur_max = state.max_vertex

    first_seen: List[Tuple[int, int, float]] = []
    upgrades: List[int] = []
    edge_weights: Dict[int, int] = {}
    vertex_weights: Dict[int, int] = {}
    new_edges: List[int] = []
    placement_groups: List[Tuple[int, int, Tuple[int, ...]]] = []

    bucket_lo = lo
    bucket_tx: Optional[int] = None
    bucket_new: List[int] = []

    for i in range(lo, hi):
        s = src[i]
        d = dst[i]
        t = tx[i]
        if bucket_tx is None:
            bucket_tx = t
        elif t != bucket_tx:
            if bucket_new:
                placement_groups.append((bucket_lo, i, tuple(bucket_new)))
                bucket_new = []
            bucket_lo = i
            bucket_tx = t

        if s > cur_max:
            cur_max = s
            first_seen.append((s, skind[i], ts[i]))
            bucket_new.append(s)
            if skind[i] == CONTRACT_CODE:
                contract_known.add(s)
        elif skind[i] == CONTRACT_CODE and s not in contract_known:
            contract_known.add(s)
            upgrades.append(s)
        if d > cur_max:
            cur_max = d
            first_seen.append((d, dkind[i], ts[i]))
            bucket_new.append(d)
            if dkind[i] == CONTRACT_CODE:
                contract_known.add(d)
        elif dkind[i] == CONTRACT_CODE and d not in contract_known:
            contract_known.add(d)
            upgrades.append(d)

        p = (s << PACK_SHIFT) | d
        edge_weights[p] = edge_weights.get(p, 0) + 1
        vertex_weights[s] = vertex_weights.get(s, 0) + 1
        if d != s:
            vertex_weights[d] = vertex_weights.get(d, 0) + 1
        if p not in edge_seen:
            edge_seen.add(p)
            if d != s:
                new_edges.append(p)

    if bucket_new:
        placement_groups.append((bucket_lo, hi, tuple(bucket_new)))
    state.max_vertex = cur_max
    return WindowBatch(first_seen, upgrades, edge_weights, vertex_weights,
                       new_edges, placement_groups)


def graph_batch(ts, src, dst, skind, dkind, lo: int, hi: int):
    """Aggregate rows [lo, hi) for a standalone window digraph.

    The stateless sibling of :func:`window_pass` (fresh graph, no
    cross-window memory): returns ``(first_seen, upgrades,
    edge_weights, vertex_weights)`` with the same order conventions.
    """
    seen: set = set()
    contracts: set = set()
    first_seen: List[Tuple[int, int, float]] = []
    upgrades: List[int] = []
    edge_weights: Dict[int, int] = {}
    vertex_weights: Dict[int, int] = {}
    for i in range(lo, hi):
        s = src[i]
        d = dst[i]
        if s not in seen:
            seen.add(s)
            first_seen.append((s, skind[i], ts[i]))
            if skind[i] == CONTRACT_CODE:
                contracts.add(s)
        elif skind[i] == CONTRACT_CODE and s not in contracts:
            contracts.add(s)
            upgrades.append(s)
        if d not in seen:
            seen.add(d)
            first_seen.append((d, dkind[i], ts[i]))
            if dkind[i] == CONTRACT_CODE:
                contracts.add(d)
        elif dkind[i] == CONTRACT_CODE and d not in contracts:
            contracts.add(d)
            upgrades.append(d)
        p = (s << PACK_SHIFT) | d
        edge_weights[p] = edge_weights.get(p, 0) + 1
        vertex_weights[s] = vertex_weights.get(s, 0) + 1
        if d != s:
            vertex_weights[d] = vertex_weights.get(d, 0) + 1
    return first_seen, upgrades, edge_weights, vertex_weights


def account_window(src, dst, lo: int, hi: int, new_edges, shard,
                   k: int) -> Tuple[int, int, List[int], List[int], int]:
    """Per-method window accounting over a dense shard array.

    Returns ``(wcut, wtotal, load, weight_delta, static_cut_delta)``
    with exactly the legacy per-row semantics: every row credits its
    src shard one activity weight (dst too when distinct); a
    cross-shard row bumps wcut and both loads; a same-shard row bumps
    its shard's load twice.  The static-cut delta counts the window's
    new distinct non-self edges that are cross-shard — equivalent to
    the legacy "new edge at a cross-shard row" test because accounting
    never moves vertices mid-window.
    """
    load = [0] * k
    wdelta = [0] * k
    wcut = 0
    wtotal = 0
    for i in range(lo, hi):
        s = src[i]
        d = dst[i]
        s_src = shard[s]
        wdelta[s_src] += 1
        if s == d:
            continue
        s_dst = shard[d]
        wdelta[s_dst] += 1
        if s_src != s_dst:
            wcut += 1
            load[s_src] += 1
            load[s_dst] += 1
        else:
            load[s_src] += 2
        wtotal += 1
    sdelta = 0
    for p in new_edges:
        if shard[p >> PACK_SHIFT] != shard[p & PACK_MASK]:
            sdelta += 1
    return wcut, wtotal, load, wdelta, sdelta


def static_cut_count(esrc, edst, shard) -> int:
    """Distinct directed non-self edges whose endpoints' shards differ."""
    cut = 0
    for s, d in zip(esrc, edst):
        if shard[s] != shard[d]:
            cut += 1
    return cut


def max_index(src, dst, lo: int, hi: int) -> int:
    """Highest dense vertex index in rows [lo, hi); -1 when empty."""
    m = -1
    for i in range(lo, hi):
        if src[i] > m:
            m = src[i]
        if dst[i] > m:
            m = dst[i]
    return m


# ----------------------------------------------------------------------
# CSR construction


class CSRAccumulator:
    """Cumulative undirected-graph accumulator over dense columns.

    The reference dict-of-dicts fold: per row, both adjacency
    directions and both endpoint activities.  ``snapshot`` emits
    adjacency in per-vertex insertion order (= first occurrence of the
    vertex pair in either direction).
    """

    __slots__ = ("_adj", "_activity")

    def __init__(self) -> None:
        self._adj: List[Dict[int, int]] = []
        self._activity: List[int] = []

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def advance(self, src, dst, lo: int, hi: int) -> None:
        adj = self._adj
        activity = self._activity
        for i in range(lo, hi):
            s = src[i]
            d = dst[i]
            top = s if s > d else d
            while len(adj) <= top:
                adj.append({})
                activity.append(0)
            activity[s] += 1
            if d == s:
                continue
            activity[d] += 1
            adj_s = adj[s]
            adj_s[d] = adj_s.get(d, 0) + 1
            adj_d = adj[d]
            adj_d[s] = adj_d.get(s, 0) + 1

    def snapshot(self, vertex_weights: str):
        return _emit_adj(self._adj, self._activity, vertex_weights)


def csr_from_window(src, dst, lo: int, hi: int, vertex_weights: str):
    """One-shot compacted CSR of rows [lo, hi).

    Local indices are assigned in first-appearance order over the
    interleaved endpoint stream (src of every row; dst when distinct
    from src — self-interactions number their single endpoint once).
    Returns ``(xadj, adjncy, adjwgt, vwgt, dense_ids)`` where
    ``dense_ids[local]`` is the log-dense index of each CSR vertex.
    """
    local: Dict[int, int] = {}
    adj: List[Dict[int, int]] = []
    activity: List[int] = []
    for i in range(lo, hi):
        s = src[i]
        d = dst[i]
        ls = local.get(s)
        if ls is None:
            ls = local[s] = len(adj)
            adj.append({})
            activity.append(0)
        activity[ls] += 1
        if d == s:
            continue
        ld = local.get(d)
        if ld is None:
            ld = local[d] = len(adj)
            adj.append({})
            activity.append(0)
        activity[ld] += 1
        adj_s = adj[ls]
        adj_s[ld] = adj_s.get(ld, 0) + 1
        adj_d = adj[ld]
        adj_d[ls] = adj_d.get(ls, 0) + 1
    xadj, adjncy, adjwgt, vwgt, _n = _emit_adj(adj, activity, vertex_weights)
    return xadj, adjncy, adjwgt, vwgt, list(local)


def _emit_adj(adj, activity, vertex_weights: str):
    n = len(adj)
    xadj = [0] * (n + 1)
    adjncy: List[int] = []
    adjwgt: List[int] = []
    for v in range(n):
        for nbr, w in adj[v].items():
            adjncy.append(nbr)
            adjwgt.append(w)
        xadj[v + 1] = len(adjncy)
    if vertex_weights == "unit":
        vwgt = [1] * n
    else:
        vwgt = [max(1, a) for a in activity]
    return xadj, adjncy, adjwgt, vwgt, n


# ----------------------------------------------------------------------
# partition refinement / matching primitives


def part_weights(graph, part: Sequence[int], k: int,
                 skip_unassigned: bool = False) -> List[int]:
    """Vertex-weight totals per part (``part[v] < 0`` skipped on request)."""
    vwgt = graph.vwgt
    weights = [0] * k
    if skip_unassigned:
        for v in range(len(vwgt)):
            p = part[v]
            if p >= 0:
                weights[p] += vwgt[v]
    else:
        for v in range(len(vwgt)):
            weights[part[v]] += vwgt[v]
    return weights


def boundary_list(graph, part: Sequence[int]) -> List[int]:
    """Vertices with at least one cross-part neighbor, ascending."""
    xadj, adjncy = graph.xadj, graph.adjncy
    out: List[int] = []
    for v in range(len(xadj) - 1):
        pv = part[v]
        for i in range(xadj[v], xadj[v + 1]):
            if part[adjncy[i]] != pv:
                out.append(v)
                break
    return out


def cut_value(graph, part: Sequence[int]) -> int:
    """Total weight of cut edges (each undirected edge counted once)."""
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    cut = 0
    for v in range(len(xadj) - 1):
        pv = part[v]
        for i in range(xadj[v], xadj[v + 1]):
            if part[adjncy[i]] != pv:
                cut += adjwgt[i]
    return cut // 2


def hem_matching(graph, order: Sequence[int]) -> List[int]:
    """Heavy-edge matching over a caller-shuffled visit order."""
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    n = len(xadj) - 1
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        best = -1
        best_w = -1
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if match[u] == -1 and u != v and adjwgt[i] > best_w:
                best = u
                best_w = adjwgt[i]
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return match


def unassigned_list(part: Sequence[int]) -> List[int]:
    """Indices with ``part[v] < 0``, ascending."""
    return [v for v in range(len(part)) if part[v] < 0]


def max_weighted_degree(graph) -> int:
    """Largest per-vertex sum of incident edge weights (0 when edgeless).

    The gain bound of FM refinement: every vertex's move gain lies in
    ``[-max_weighted_degree, +max_weighted_degree]``, which sizes the
    :class:`~repro.kernels.types.GainBuckets` array.
    """
    xadj, adjwgt = graph.xadj, graph.adjwgt
    best = 0
    for v in range(len(xadj) - 1):
        s = 0
        for i in range(xadj[v], xadj[v + 1]):
            s += adjwgt[i]
        if s > best:
            best = s
    return best


def conn_matrix(
    graph, part: Sequence[int], k: int, vertices: Sequence[int],
) -> Tuple[List[int], List[int], List[int]]:
    """Part-connectivity rows of ``vertices``, flattened row-major.

    Returns ``(conn, first_pos, movable)``.  ``conn`` and ``first_pos``
    have length ``len(vertices) * k``: row ``r`` covers
    ``vertices[r]``, and entry ``p`` holds the summed weight of its
    edges into part ``p`` / the *absolute adjncy index* of its first
    neighbor in part ``p`` (``-1`` when part ``p`` is not adjacent —
    the presence test, exact even for zero-weight edges).  Unassigned
    neighbors (``part < 0``) are excluded.  ``first_pos`` encodes the
    legacy per-vertex conn-dict insertion order: parts sorted by it are
    in first-encounter order over the adjacency, which is the k-way
    tie-break the refinement selectors contract to.

    ``movable`` has one entry per row: 1 iff some adjacent part
    ``p != part[vertices[r]]`` has ``conn[p] > conn[own]`` (``own``
    connectivity counts as 0 for unassigned subjects) — i.e. the vertex
    has a positive-cut-gain destination *before* any balance check.
    The test depends only on the row, so a cached row's flag stays
    exact until the row is invalidated; the k-way refiners use it to
    skip the (vast, in warm starts) no-gain majority without running
    the move selector.
    """
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    m = len(vertices)
    conn = [0] * (m * k)
    first_pos = [-1] * (m * k)
    movable = [0] * m
    base = 0
    for r, v in enumerate(vertices):
        for i in range(xadj[v], xadj[v + 1]):
            p = part[adjncy[i]]
            if p < 0:
                continue
            idx = base + p
            conn[idx] += adjwgt[i]
            if first_pos[idx] < 0:
                first_pos[idx] = i
        own = part[v]
        internal = conn[base + own] if own >= 0 else 0
        for p in range(k):
            if p == own:
                continue
            if first_pos[base + p] >= 0 and conn[base + p] > internal:
                movable[r] = 1
                break
        base += k
    return conn, first_pos, movable


def gain_vector(graph, part: Sequence[int],
                vertices: Sequence[int]) -> List[int]:
    """FM move gains of ``vertices``: cross-part minus same-part weight.

    Exactly the per-vertex ``compute_gain`` of the FM pass, batched:
    a neighbor in ``part[v]`` subtracts its edge weight, any other
    neighbor (including unassigned) adds it.
    """
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    out: List[int] = []
    for v in vertices:
        pv = part[v]
        g = 0
        for i in range(xadj[v], xadj[v + 1]):
            if part[adjncy[i]] == pv:
                g -= adjwgt[i]
            else:
                g += adjwgt[i]
        out.append(g)
    return out


def kl_proposals(graph, shard: Sequence[int], k: int,
                 min_gain: int) -> List[Tuple[int, int, int, int]]:
    """Batched KL gather: per-vertex best positive-gain shard moves.

    The kernel form of ``KLPartitioner._gather_proposals``: for every
    assigned vertex (``shard[v] >= 0``, ascending — the insertion order
    of the legacy shard dict), connectivity is summed per adjacent
    assigned shard and the winning destination is the *first shard in
    adjacency first-encounter order* achieving the maximal gain
    ``conn[t] - conn[own]``; vertices whose best gain reaches
    ``min_gain`` yield a ``(vertex, src, dst, gain)`` tuple.
    """
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    out: List[Tuple[int, int, int, int]] = []
    for v in range(len(xadj) - 1):
        s = shard[v]
        if s < 0:
            continue
        conn: Dict[int, int] = {}
        for i in range(xadj[v], xadj[v + 1]):
            t = shard[adjncy[i]]
            if t >= 0:
                conn[t] = conn.get(t, 0) + adjwgt[i]
        internal = conn.get(s, 0)
        best_t = -1
        best_gain = min_gain - 1
        for t, w in conn.items():
            if t == s:
                continue
            gain = w - internal
            if gain > best_gain:
                best_gain = gain
                best_t = t
        if best_t >= 0:
            out.append((v, s, best_t, best_gain))
    return out
