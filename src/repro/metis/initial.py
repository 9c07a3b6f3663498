"""Initial bisection of the coarsest graph.

Two algorithms:

* **greedy graph growing (GGG)** — grow region 0 from a random seed
  vertex, always absorbing the frontier vertex with the best gain
  (cut-weight decrease), until region 0 reaches its target weight.
  Several trials from different seeds keep the best cut (this is
  METIS's GGGP);
* **spectral bisection** — sort vertices by the Fiedler vector of the
  weighted graph Laplacian (scipy) and take the prefix that fills the
  target weight.  Exposed for the ABL-METIS ablation and used as a
  fallback quality reference.

Both return a 0/1 part vector.
"""

from __future__ import annotations

import heapq
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
    receives the rest.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    best_part: Optional[List[int]] = None
    best_cut = float("inf")
    for _ in range(max(1, ntrials)):
        part = _grow_once(graph, target0, rng)
        cut = graph.cut_of(part)
        if cut < best_cut:
            best_cut = cut
            best_part = part
    assert best_part is not None
    return best_part


def _grow_once(graph: CSRGraph, target0: float, rng: random.Random) -> List[int]:
    """One greedy growth from a random seed; returns the part vector."""
    n = graph.num_vertices
    part = [1] * n
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt

    seed = rng.randrange(n)
    part[seed] = 0
    weight0 = vwgt[seed]

    # gain[v] = cut decrease if v moves into region 0
    #         = (edges to region 0) - (edges to region 1)
    gain = [0] * n
    in_heap = [False] * n
    heap: List[Tuple[int, int, int]] = []  # (-gain, tiebreak, v)
    counter = 0

    def push_frontier(v: int) -> None:
        nonlocal counter
        g = 0
        for i in range(xadj[v], xadj[v + 1]):
            g += adjwgt[i] if part[adjncy[i]] == 0 else -adjwgt[i]
        gain[v] = g
        counter += 1
        heapq.heappush(heap, (-g, counter, v))
        in_heap[v] = True

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


def spectral_bisection(graph: CSRGraph, target0: float) -> List[int]:
    """Fiedler-vector bisection (requires scipy; coarse graphs only).

    Raises ``RuntimeError`` if scipy is not importable or the
    eigensolver fails to converge — callers fall back to greedy
    growing.
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

    try:
        _, vecs = eigsh(laplacian, k=2, which="SM", maxiter=5000, tol=1e-6)
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
