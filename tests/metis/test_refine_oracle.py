"""The batched refinement path vs the pre-kernel implementations.

The functions in ``repro.metis.refine`` were rewritten from per-vertex
python dict/heap loops onto batched kernels (``conn_matrix`` /
``gain_vector``) and inline gain buckets with a bit-identity contract:
same cuts, same parts, same move counts, under every backend.  Greedy
growing (``repro.metis.initial``) went from a heap with a per-push gain
recount onto the same buckets, with a tracked cut.  This module keeps
the *legacy* implementations alive as self-contained test oracles
(nothing imported from the modules they check — straight
transliterations of the original loops, with the two determinism
bugfixes applied so the comparison isolates the rewrite) and
property-checks the rewritten functions against them.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.metis.graph import CSRGraph
from repro.metis.initial import greedy_graph_growing
from repro.metis.refine import (
    boundary_kway_refine,
    fm_refine,
    kway_refine,
    rebalance_kway,
)

BACKENDS = kernels.available_backends()


# ----------------------------------------------------------------------
# legacy implementations (pre-batching), kept verbatim as oracles


def _legacy_imbalance(weights, targets):
    """max over parts of weight/target — 1.0 is perfectly on target."""
    return max(
        (w / t if t > 0 else float("inf")) for w, t in zip(weights, targets)
    )


def _legacy_fm_refine(graph, part, targets, ubfactor=1.05, max_passes=8):
    weights = [0.0, 0.0]
    for v in range(graph.num_vertices):
        weights[part[v]] += graph.vwgt[v]
    cut = _legacy_cut(graph, part)
    for _ in range(max_passes):
        improved = _legacy_fm_pass(graph, part, weights, targets, ubfactor, cut)
        if improved is None:
            break
        cut = improved
    return cut


def _legacy_cut(graph, part):
    cut = 0
    for v in range(graph.num_vertices):
        pv = part[v]
        for i in range(graph.xadj[v], graph.xadj[v + 1]):
            if part[graph.adjncy[i]] != pv:
                cut += graph.adjwgt[i]
    return cut // 2


def _legacy_fm_pass(graph, part, weights, targets, ubfactor, start_cut):
    n = graph.num_vertices
    xadj, adjncy, adjwgt, vwgt = (
        graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt)

    gain = [0] * n
    locked = [False] * n
    heap = []
    counter = 0

    def compute_gain(v):
        g = 0
        pv = part[v]
        for i in range(xadj[v], xadj[v + 1]):
            if part[adjncy[i]] == pv:
                g -= adjwgt[i]
            else:
                g += adjwgt[i]
        return g

    def push(v):
        nonlocal counter
        gain[v] = compute_gain(v)
        counter += 1
        heapq.heappush(heap, (-gain[v], counter, v))

    for v in range(n):
        pv = part[v]
        for i in range(xadj[v], xadj[v + 1]):
            if part[adjncy[i]] != pv:
                push(v)
                break

    moves = []
    cur_cut = start_cut
    best_cut = start_cut
    best_imb = _legacy_imbalance(weights, targets)
    best_prefix = 0

    while heap:
        neg_g, _, v = heapq.heappop(heap)
        if locked[v] or -neg_g != gain[v]:
            continue
        src = part[v]
        dst = 1 - src
        new_weights = (
            weights[0] - vwgt[v] if src == 0 else weights[0] + vwgt[v],
            weights[1] - vwgt[v] if src == 1 else weights[1] + vwgt[v],
        )
        imb_before = _legacy_imbalance(weights, targets)
        imb_after = _legacy_imbalance(new_weights, targets)
        limit = max(ubfactor * targets[dst], targets[dst] + vwgt[v])
        if new_weights[dst] > limit and imb_after >= imb_before:
            continue
        part[v] = dst
        weights[0], weights[1] = new_weights
        cur_cut -= gain[v]
        locked[v] = True
        moves.append(v)
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if not locked[u]:
                push(u)
        if cur_cut < best_cut or (cur_cut == best_cut and imb_after < best_imb):
            best_cut = cur_cut
            best_imb = imb_after
            best_prefix = len(moves)

    for v in moves[best_prefix:]:
        src = part[v]
        part[v] = 1 - src
        weights[src] -= vwgt[v]
        weights[1 - src] += vwgt[v]

    if best_cut < start_cut:
        return best_cut
    return None


def _legacy_greedy_graph_growing(graph, target0, rng, ntrials=8):
    n = graph.num_vertices
    if n == 0:
        return []
    best_part = None
    best_cut = float("inf")
    for _ in range(max(1, ntrials)):
        part = _legacy_grow_once(graph, target0, rng)
        cut = graph.cut_of(part)
        if cut < best_cut:
            best_cut = cut
            best_part = part
    assert best_part is not None
    return best_part


def _legacy_grow_once(graph, target0, rng):
    n = graph.num_vertices
    part = [1] * n
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt

    seed = rng.randrange(n)
    part[seed] = 0
    weight0 = vwgt[seed]

    # gain[v] = cut decrease if v moves into region 0
    #         = (edges to region 0) - (edges to region 1)
    gain = [0] * n
    heap = []  # (-gain, tiebreak, v)
    counter = 0

    def push_frontier(v):
        nonlocal counter
        g = 0
        for i in range(xadj[v], xadj[v + 1]):
            g += adjwgt[i] if part[adjncy[i]] == 0 else -adjwgt[i]
        gain[v] = g
        counter += 1
        heapq.heappush(heap, (-g, counter, v))

    for i in range(xadj[seed], xadj[seed + 1]):
        if part[adjncy[i]] == 1:
            push_frontier(adjncy[i])

    while weight0 < target0:
        v = -1
        while heap:
            neg_g, _, cand = heapq.heappop(heap)
            if part[cand] == 1 and -neg_g == gain[cand]:
                v = cand
                break
        if v == -1:
            # frontier exhausted (disconnected graph): seed a new region
            remaining = [u for u in range(n) if part[u] == 1]
            if not remaining:
                break
            v = rng.choice(remaining)
        part[v] = 0
        weight0 += vwgt[v]
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if part[u] == 1:
                # u's gain changes by 2*w (one more edge into region 0,
                # one fewer into region 1); re-push with fresh gain
                push_frontier(u)
    return part


def _legacy_rebalance_kway(graph, part, k, targets, ubfactor=1.05):
    # includes the two bugfixes (zero-target parts excluded, capacity
    # check on the fallback) so the comparison isolates the batching
    n = graph.num_vertices
    xadj, adjncy, adjwgt, vwgt = (
        graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt)
    weights = [0.0] * k
    for v in range(n):
        weights[part[v]] += vwgt[v]
    maxw = max(vwgt, default=1)

    moves = 0
    for p in range(k):
        limit = max(ubfactor * targets[p], targets[p] + maxw)
        if weights[p] <= limit:
            continue
        candidates = []
        for v in range(n):
            if part[v] != p:
                continue
            external_best = 0
            best_dst = -1
            conn = {}
            for i in range(xadj[v], xadj[v + 1]):
                conn[part[adjncy[i]]] = conn.get(part[adjncy[i]], 0) + adjwgt[i]
            internal = conn.get(p, 0)
            for q, w in conn.items():
                if q != p and w > external_best:
                    external_best = w
                    best_dst = q
            candidates.append((internal - external_best, v, best_dst))
        candidates.sort()
        for _loss, v, preferred in candidates:
            if weights[p] <= limit:
                break
            dst = preferred
            if dst < 0 or weights[dst] + vwgt[v] > ubfactor * targets[dst]:
                dst = -1
                best_ratio = 0.0
                for q in range(k):
                    if q == p or targets[q] <= 0:
                        continue
                    if weights[q] + vwgt[v] > max(
                        ubfactor * targets[q], targets[q] + maxw
                    ):
                        continue
                    ratio = weights[q] / targets[q]
                    if dst < 0 or ratio < best_ratio:
                        best_ratio = ratio
                        dst = q
                if dst < 0:
                    continue
            if dst == p:
                continue
            weights[p] -= vwgt[v]
            weights[dst] += vwgt[v]
            part[v] = dst
            moves += 1
    return moves


def _legacy_best_kway_move(pv, vw, conn, weights, targets, ubfactor):
    internal = conn.get(pv, 0)
    best_part = pv
    best_gain = 0
    for p, w in conn.items():
        if p == pv:
            continue
        gain = w - internal
        if gain <= best_gain:
            continue
        if weights[p] + vw > max(ubfactor * targets[p], targets[p] + vw):
            continue
        if weights[pv] - vw <= 0:
            continue
        best_gain = gain
        best_part = p
    return best_part, best_gain


def _legacy_boundary_list(graph, part):
    out = []
    for v in range(graph.num_vertices):
        pv = part[v]
        for i in range(graph.xadj[v], graph.xadj[v + 1]):
            if part[graph.adjncy[i]] != pv:
                out.append(v)
                break
    return out


def _legacy_boundary_kway_refine(graph, part, k, targets, ubfactor=1.05,
                                 max_moves_factor=2.0):
    from collections import deque

    n = graph.num_vertices
    xadj, adjncy, adjwgt, vwgt = (
        graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt)
    _legacy_rebalance_kway(graph, part, k, targets, ubfactor=ubfactor)
    weights = [0.0] * k
    for v in range(n):
        weights[part[v]] += vwgt[v]

    queued = [False] * n
    queue = deque()
    for v in _legacy_boundary_list(graph, part):
        queue.append(v)
        queued[v] = True

    moves = 0
    max_moves = int(max_moves_factor * n) + 1
    while queue and moves < max_moves:
        v = queue.popleft()
        queued[v] = False
        pv = part[v]
        conn = {}
        for i in range(xadj[v], xadj[v + 1]):
            p = part[adjncy[i]]
            conn[p] = conn.get(p, 0) + adjwgt[i]
        best_part, _gain = _legacy_best_kway_move(
            pv, vwgt[v], conn, weights, targets, ubfactor)
        if best_part == pv:
            continue
        weights[pv] -= vwgt[v]
        weights[best_part] += vwgt[v]
        part[v] = best_part
        moves += 1
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if not queued[u]:
                queue.append(u)
                queued[u] = True
    return moves


def _legacy_kway_refine(graph, part, k, targets, ubfactor=1.05, max_passes=4):
    n = graph.num_vertices
    xadj, adjncy, adjwgt, vwgt = (
        graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt)
    _legacy_rebalance_kway(graph, part, k, targets, ubfactor=ubfactor)
    weights = [0.0] * k
    for v in range(n):
        weights[part[v]] += vwgt[v]
    cut = _legacy_cut(graph, part)

    for _ in range(max_passes):
        moved = 0
        candidate = bytearray(n)
        for v in _legacy_boundary_list(graph, part):
            candidate[v] = 1
        for v in range(n):
            if not candidate[v]:
                continue
            pv = part[v]
            conn = {}
            for i in range(xadj[v], xadj[v + 1]):
                conn[part[adjncy[i]]] = conn.get(part[adjncy[i]], 0) + adjwgt[i]
            best_part, best_gain = _legacy_best_kway_move(
                pv, vwgt[v], conn, weights, targets, ubfactor)
            if best_part != pv:
                weights[pv] -= vwgt[v]
                weights[best_part] += vwgt[v]
                part[v] = best_part
                cut -= best_gain
                moved += 1
                for i in range(xadj[v], xadj[v + 1]):
                    candidate[adjncy[i]] = 1
        if moved == 0:
            break
    return cut


def _legacy_kl_proposals(graph, shard, k, min_gain):
    # the original KLPartitioner._gather_proposals dict loop, expressed
    # over the CSR bridge (adjacency order == the und dict order the
    # CSR was built from)
    out = []
    shard_items = [(v, shard[v]) for v in range(graph.num_vertices)
                   if shard[v] >= 0]
    for v, s in shard_items:
        conn = {}
        for i in range(graph.xadj[v], graph.xadj[v + 1]):
            t = shard[graph.adjncy[i]]
            if t >= 0:
                conn[t] = conn.get(t, 0) + graph.adjwgt[i]
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
        if best_t >= 0 and best_gain >= min_gain:
            out.append((v, s, best_t, best_gain))
    return out


# ----------------------------------------------------------------------
# property comparisons


@st.composite
def graphs_and_parts(draw):
    # zero-weight edges included: a move across one leaves a gain
    # unchanged but still re-pushes, so equal-gain entries meet in one
    # bucket
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=0, max_value=100))
    edges = {}
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + draw(st.integers(0, 5))
    vwgt = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    graph = CSRGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()],
                                vwgt=vwgt)
    k = draw(st.integers(2, 4))
    part = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return graph, part, k


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=graphs_and_parts())
@settings(max_examples=40, deadline=None)
def test_fm_refine_matches_legacy(backend, case):
    graph, part, _k = case
    bisect = [p % 2 for p in part]
    total = float(graph.total_vertex_weight)
    targets = (total / 2, total / 2)
    ref_part = list(bisect)
    ref_cut = _legacy_fm_refine(graph, ref_part, targets)
    with kernels.using_backend(backend):
        got_part = list(bisect)
        got_cut = fm_refine(graph, got_part, targets)
    assert (got_cut, got_part) == (ref_cut, ref_part)


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=graphs_and_parts(), eighths=st.integers(0, 10),
       ntrials=st.integers(1, 8), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_greedy_graph_growing_matches_legacy(backend, case, eighths, ntrials,
                                             seed):
    # target0 runs from 0 to 1.25x the total weight; the drawn graphs
    # have isolated vertices and separate components, so growth
    # exhausts its frontier and reseeds through rng.choice
    graph, _part, _k = case
    target0 = graph.total_vertex_weight * eighths / 8
    ref_rng = random.Random(seed)
    ref_part = _legacy_greedy_graph_growing(graph, target0, ref_rng, ntrials)
    with kernels.using_backend(backend):
        got_rng = random.Random(seed)
        got_part = greedy_graph_growing(graph, target0, got_rng, ntrials)
    assert got_part == ref_part
    assert got_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=graphs_and_parts())
@settings(max_examples=40, deadline=None)
def test_kway_refine_matches_legacy(backend, case):
    graph, part, k = case
    total = float(graph.total_vertex_weight)
    targets = [total / k] * k
    ref_part = list(part)
    ref_cut = _legacy_kway_refine(graph, ref_part, k, targets)
    with kernels.using_backend(backend):
        got_part = list(part)
        got_cut = kway_refine(graph, got_part, k, targets)
    assert (got_cut, got_part) == (ref_cut, ref_part)


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=graphs_and_parts())
@settings(max_examples=40, deadline=None)
def test_boundary_kway_refine_matches_legacy(backend, case):
    graph, part, k = case
    total = float(graph.total_vertex_weight)
    targets = [total / k] * k
    ref_part = list(part)
    ref_moves = _legacy_boundary_kway_refine(graph, ref_part, k, targets)
    with kernels.using_backend(backend):
        got_part = list(part)
        got_moves = boundary_kway_refine(graph, got_part, k, targets)
    assert (got_moves, got_part) == (ref_moves, ref_part)


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=graphs_and_parts(), lumpy=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_rebalance_kway_matches_legacy(backend, case, lumpy):
    graph, part, k = case
    # skew the partition toward part 0 so rebalancing actually fires
    rng = random.Random(lumpy)
    skewed = [p if rng.random() < 0.4 else 0 for p in part]
    total = float(graph.total_vertex_weight)
    targets = [total / k] * k
    ref_part = list(skewed)
    ref_moves = _legacy_rebalance_kway(graph, ref_part, k, targets)
    with kernels.using_backend(backend):
        got_part = list(skewed)
        got_moves = rebalance_kway(graph, got_part, k, targets)
    assert (got_moves, got_part) == (ref_moves, ref_part)


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=graphs_and_parts(), holes=st.integers(0, 99),
       min_gain=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_kl_proposals_match_legacy_gather(backend, case, holes, min_gain):
    graph, part, k = case
    rng = random.Random(holes)
    shard = [p if rng.random() < 0.85 else -1 for p in part]
    ref = _legacy_kl_proposals(graph, shard, k, min_gain)
    with kernels.using_backend(backend):
        got = kernels.active().kl_proposals(graph, shard, k, min_gain)
    assert got == ref
