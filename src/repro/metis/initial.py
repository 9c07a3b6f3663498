"""Initial bisection of the coarsest graph.

Two algorithms:

* **greedy graph growing (GGG)** — grow region 0 from a random seed
  vertex, always absorbing the frontier vertex with the best gain
  (cut-weight decrease), until region 0 reaches its target weight.
  Several trials from different seeds keep the best cut (this is
  METIS's GGGP).  The frontier lives in per-gain buckets drained
  inline, gains move by exactly ``+2w`` as neighbors join, and each
  trial's cut is tracked from the gains of the vertices that joined;
* **spectral bisection** — sort vertices by the Fiedler vector of the
  weighted graph Laplacian (scipy) and take the prefix that fills the
  target weight.  Exposed for the ABL-METIS ablation and used as a
  fallback quality reference.

Both return a 0/1 part vector.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.metis.graph import CSRGraph


def greedy_graph_growing(
    graph: CSRGraph,
    target0: float,
    rng: random.Random,
    ntrials: int = 8,
) -> List[int]:
    """Best-of-``ntrials`` greedy-growing bisection.

    ``target0`` is the desired total vertex weight of part 0; part 1
    receives the rest.  The first trial with the smallest cut wins.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    xadj, adjwgt = graph.xadj, graph.adjwgt
    # every trial starts with region 0 empty, where a vertex's gain is
    # minus its weighted degree; no gain is further from 0 than that
    start = [-sum(adjwgt[xadj[v]:xadj[v + 1]]) for v in range(n)]
    bound = -min(start)
    best_part: Optional[List[int]] = None
    best_cut = float("inf")
    for _ in range(max(1, ntrials)):
        part, cut = _grow_once(graph, target0, rng, start, bound)
        if cut < best_cut:
            best_cut = cut
            best_part = part
    assert best_part is not None
    return best_part


def _grow_once(
    graph: CSRGraph,
    target0: float,
    rng: random.Random,
    start: List[int],
    bound: int,
) -> Tuple[List[int], int]:
    """One greedy growth from a random seed: ``(part vector, cut)``.

    gain[u] = cut decrease if u joins region 0
            = (edge weight to region 0) - (edge weight to region 1),
    kept exact for every region-1 vertex: it starts at ``start[u]``
    (no region-0 neighbor yet) and grows by exactly ``2w`` when a
    neighbor across an edge of weight w joins (the edge flips from cut
    to internal).  A vertex joining with gain g lowers the cut by g.
    Both hold on a simple graph (no self-loops or parallel edges),
    which every ``CSRGraph`` constructor builds.

    Frontier entries live in per-gain buckets over ``[-bound, +bound]``,
    drained inline: the highest nonempty bucket first, each in push
    order — the pop order of a heap keyed by ``(-gain, push counter)``.
    Every gain change re-pushes.  Edge weights are non-negative, so
    gains only grow and a vertex's newest entry drains before its older
    ones (an older one at the same gain drains first and is equally
    current): an entry is stale exactly when its vertex has joined
    region 0.
    """
    n = graph.num_vertices
    part = [1] * n
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt

    gain = list(start)
    buckets: List[List[int]] = [[] for _ in range(2 * bound + 1)]
    heads = [0] * (2 * bound + 1)
    top = -1

    v = rng.randrange(n)
    weight0 = 0
    cut = 0
    while True:
        part[v] = 0
        weight0 += vwgt[v]
        cut -= gain[v]
        if weight0 >= target0:
            break
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if part[u] == 1:
                g = gain[u] + 2 * adjwgt[i]
                gain[u] = g
                b = g + bound
                buckets[b].append(u)
                if b > top:
                    top = b

        v = -1
        while top >= 0:
            bucket = buckets[top]
            head = heads[top]
            if head == len(bucket):
                top -= 1
                continue
            heads[top] = head + 1
            u = bucket[head]
            if part[u] == 1:
                v = u
                break
        if v < 0:
            # frontier exhausted (disconnected graph): seed a new region
            remaining = [u for u in range(n) if part[u] == 1]
            if not remaining:
                break
            v = rng.choice(remaining)
    return part, cut


def spectral_bisection(graph: CSRGraph, target0: float) -> List[int]:
    """Fiedler-vector bisection (requires scipy; coarse graphs only).

    Raises ``RuntimeError`` if scipy is not importable or the
    eigensolver fails to converge — callers fall back to greedy
    growing.  The eigensolver starts from a fixed pseudo-random vector
    of the graph's size (not from the caller's RNG, and not from the
    vector ARPACK would draw itself), so equal graphs bisect equally.
    """
    n = graph.num_vertices
    if n < 3:
        return [0] * n
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import eigsh
    except ImportError as exc:
        raise RuntimeError(f"spectral bisection needs scipy: {exc}") from exc

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    degree = [0.0] * n
    for v in range(n):
        for i in range(graph.xadj[v], graph.xadj[v + 1]):
            u = graph.adjncy[i]
            w = float(graph.adjwgt[i])
            rows.append(v)
            cols.append(u)
            vals.append(-w)
            degree[v] += w
    for v in range(n):
        rows.append(v)
        cols.append(v)
        vals.append(degree[v] + 1e-9)
    laplacian = csr_matrix((vals, (rows, cols)), shape=(n, n))

    start = random.Random(n)
    v0 = [start.uniform(-1.0, 1.0) for _ in range(n)]
    try:
        _, vecs = eigsh(laplacian, k=2, which="SM", maxiter=5000, tol=1e-6, v0=v0)
    except Exception as exc:  # scipy raises several convergence types
        raise RuntimeError(f"spectral bisection failed: {exc}") from exc
    fiedler = vecs[:, 1]

    order = sorted(range(n), key=lambda v: (fiedler[v], v))
    part = [1] * n
    weight0 = 0
    for v in order:
        if weight0 >= target0:
            break
        part[v] = 0
        weight0 += graph.vwgt[v]
    return part
