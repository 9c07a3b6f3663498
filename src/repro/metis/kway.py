"""k-way partitioning by recursive bisection plus direct refinement.

METIS's pmetis-style approach: split the target weights in two, bisect,
recurse into each side on the induced subgraph, then run a direct k-way
greedy refinement pass over the assembled partition to clean up seams
between recursion branches.

Each side's induced subgraph is memoised on the graph it was cut from
(``graph.memo("halves")``, keyed by the side's vertex tuple), next to
that graph's bisection memo (:mod:`repro.metis.bisect`).  A 4-way and
an 8-way partition of one graph from one seed start with the same
bisection, so both recurse into the same left-half object, and the
8-way run's bisection of that half is the 4-way run's, served from the
half's memo.  The memos are exact because a
:class:`~repro.metis.graph.CSRGraph`'s arrays are never mutated after
construction, and they live exactly as long as the graph: a replay's
window graphs, with every half and bisection memoised on them, die
when their window closes.

:func:`warm_kway_partition` is the incremental entry: given a previous
partition projected onto a grown graph (``-1`` marks vertices the
previous run never saw), it places the new vertices by weighted
neighbor majority and runs boundary-focused refinement from there,
skipping coarsening entirely — the amortised path of periodic
repartitioning.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro import kernels
from repro.metis.bisect import multilevel_bisect
from repro.metis.coarsen import LadderCache
from repro.metis.graph import CSRGraph
from repro.metis.refine import boundary_kway_refine, kway_refine


def _induced_subgraph(graph: CSRGraph, vertices: List[int]) -> CSRGraph:
    """Induced subgraph on ``vertices`` (its vertex ``i`` is
    ``vertices[i]``), built once per vertex tuple and kept in
    ``graph``'s ``"halves"`` memo (see the module docstring)."""
    halves = graph.memo("halves")
    key = tuple(vertices)
    sub = halves.get(key)
    if sub is None:
        sub = halves[key] = _build_induced_subgraph(graph, vertices)
    return sub


def _build_induced_subgraph(graph: CSRGraph, vertices: List[int]) -> CSRGraph:
    index = {v: i for i, v in enumerate(vertices)}
    xadj = [0] * (len(vertices) + 1)
    adjncy: List[int] = []
    adjwgt: List[int] = []
    vwgt = [graph.vwgt[v] for v in vertices]
    for i, v in enumerate(vertices):
        for j in range(graph.xadj[v], graph.xadj[v + 1]):
            u = graph.adjncy[j]
            if u in index:
                adjncy.append(index[u])
                adjwgt.append(graph.adjwgt[j])
        xadj[i + 1] = len(adjncy)
    return CSRGraph(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt)


def recursive_bisection(
    graph: CSRGraph,
    k: int,
    targets: Sequence[float],
    rng: random.Random,
    ubfactor: float = 1.05,
    coarsen_to: int = 64,
    initial: str = "greedy",
    ntrials: int = 8,
) -> List[int]:
    """Partition into k parts with the given per-part weight targets.

    Returns part labels ``0..k-1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(targets) != k:
        raise ValueError(f"need {k} targets, got {len(targets)}")
    n = graph.num_vertices
    if k == 1:
        return [0] * n
    if n == 0:
        return []

    k0 = (k + 1) // 2
    target0 = float(sum(targets[:k0]))

    part01 = multilevel_bisect(
        graph,
        (target0, float(sum(targets[k0:]))),
        rng,
        ubfactor=ubfactor,
        coarsen_to=coarsen_to,
        initial=initial,
        ntrials=ntrials,
    )

    side0 = [v for v in range(n) if part01[v] == 0]
    side1 = [v for v in range(n) if part01[v] == 1]
    k1 = k - k0
    # each side must host at least as many vertices as parts it will be
    # split into; degenerate bisections (stars, heavy vertices) can
    # violate this — repair by moving the lightest vertices across
    while len(side0) < k0 and len(side1) > k1:
        v = min(side1, key=lambda u: (graph.vwgt[u], u))
        side1.remove(v)
        side0.append(v)
    while len(side1) < k1 and len(side0) > k0:
        v = min(side0, key=lambda u: (graph.vwgt[u], u))
        side0.remove(v)
        side1.append(v)
    result = [0] * n

    if k0 == 1:
        for v in side0:
            result[v] = 0
    else:
        sub_part = recursive_bisection(
            _induced_subgraph(graph, side0), k0, targets[:k0], rng,
            ubfactor, coarsen_to, initial, ntrials,
        )
        for i, v in enumerate(side0):
            result[v] = sub_part[i]

    if k1 == 1:
        for v in side1:
            result[v] = k0
    else:
        sub_part = recursive_bisection(
            _induced_subgraph(graph, side1), k1, targets[k0:], rng,
            ubfactor, coarsen_to, initial, ntrials,
        )
        for i, v in enumerate(side1):
            result[v] = k0 + sub_part[i]
    return result


def kway_partition(
    graph: CSRGraph,
    k: int,
    rng: random.Random,
    targets: Sequence[float] = (),
    ubfactor: float = 1.05,
    coarsen_to: int = 64,
    initial: str = "greedy",
    ntrials: int = 8,
    refine_passes: int = 4,
) -> List[int]:
    """Full k-way pipeline: recursive bisection + direct k-way refine."""
    if not targets:
        total = float(graph.total_vertex_weight)
        targets = [total / k] * k
    part = recursive_bisection(
        graph, k, targets, rng, ubfactor, coarsen_to, initial, ntrials
    )
    if k > 2 and refine_passes > 0:
        kway_refine(graph, part, k, targets, ubfactor=ubfactor, max_passes=refine_passes)
    return part


def direct_kway_partition(
    graph: CSRGraph,
    k: int,
    rng: random.Random,
    targets: Sequence[float] = (),
    ubfactor: float = 1.05,
    initial: str = "greedy",
    ntrials: int = 8,
    refine_passes: int = 4,
    ladder_cache: Optional[LadderCache] = None,
) -> List[int]:
    """kmetis-style direct k-way: one coarsening ladder, k-way initial
    partition of the coarsest graph, greedy k-way refinement at every
    uncoarsening level.

    Versus recursive bisection (which re-coarsens each half at every
    recursion level) this coarsens *once*, so it is markedly faster for
    larger k at comparable quality — the same tradeoff the two METIS
    binaries (pmetis/kmetis) embody.

    ``ladder_cache`` (optional) reuses and updates a
    :class:`~repro.metis.coarsen.LadderCache` from a previous run on a
    prefix-stable grown version of the same graph — the cold-restart
    path of warm-started periodic repartitioning.
    """
    from repro.metis.coarsen import coarsen, coarsen_warm, project_partition

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    if k == 1:
        return [0] * n
    if n == 0:
        return []
    if not targets:
        total = float(graph.total_vertex_weight)
        targets = [total / k] * k

    if ladder_cache is not None:
        levels = coarsen_warm(graph, rng, ladder_cache, coarsen_to=max(64, 12 * k))
    else:
        levels = coarsen(graph, rng, coarsen_to=max(64, 12 * k))
    coarsest = levels[-1].graph

    part = recursive_bisection(
        coarsest, k, _scaled_targets(targets, coarsest, graph), rng,
        ubfactor=ubfactor, coarsen_to=32, initial=initial, ntrials=ntrials,
    )
    kway_refine(coarsest, part, k, _scaled_targets(targets, coarsest, graph),
                ubfactor=ubfactor, max_passes=refine_passes)

    for level_idx in range(len(levels) - 1, 0, -1):
        level = levels[level_idx]
        finer = levels[level_idx - 1].graph
        part = project_partition(level, part)
        kway_refine(finer, part, k, _scaled_targets(targets, finer, graph),
                    ubfactor=ubfactor, max_passes=refine_passes)
    return part


def warm_kway_partition(
    graph: CSRGraph,
    k: int,
    part: List[int],
    targets: Sequence[float] = (),
    ubfactor: float = 1.05,
) -> List[int]:
    """Incremental k-way partition from a projected previous partition.

    ``part`` has length ``graph.num_vertices`` with entries in
    ``0..k-1`` for vertices the previous run assigned and ``-1`` for
    vertices that are new since.  New vertices are placed greedily by
    weighted neighbor majority (ties and isolated vertices go to the
    part with the lowest weight/target ratio — the Fennel-style load
    term), then :func:`~repro.metis.refine.boundary_kway_refine` cleans
    up from that projection.  No coarsening happens at all, which is
    why warm periods cost O(boundary) instead of O(V + E) × levels.

    Mutates and returns ``part``.
    """
    n = graph.num_vertices
    if k == 1:
        for v in range(n):
            part[v] = 0
        return part
    if n == 0:
        return part
    if not targets:
        total = float(graph.total_vertex_weight)
        targets = [total / k] * k

    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt
    kr = kernels.active()
    weights = [float(w) for w in kr.part_weights(graph, part, k, skip_unassigned=True)]

    def lightest() -> int:
        return min(
            range(k),
            key=lambda p: (weights[p] / targets[p] if targets[p] > 0 else weights[p], p),
        )

    for v in kr.unassigned_list(part):
        conn: dict = {}
        for i in range(xadj[v], xadj[v + 1]):
            p = part[adjncy[i]]
            if p >= 0:
                conn[p] = conn.get(p, 0) + adjwgt[i]
        if conn:
            best = max(
                conn.items(),
                key=lambda item: (
                    item[1],
                    -(weights[item[0]] / targets[item[0]] if targets[item[0]] > 0 else 0.0),
                    -item[0],
                ),
            )[0]
        else:
            best = lightest()
        part[v] = best
        weights[best] += vwgt[v]

    boundary_kway_refine(graph, part, k, targets, ubfactor=ubfactor)
    return part


def _scaled_targets(
    targets: Sequence[float], level_graph: CSRGraph, original: CSRGraph
) -> List[float]:
    """Coarsening conserves total vertex weight, so targets transfer
    unchanged; kept as a function for clarity and future non-conserving
    weight schemes."""
    return list(targets)
