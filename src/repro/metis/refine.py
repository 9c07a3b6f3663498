"""Refinement: Fiduccia–Mattheyses boundary passes.

After each uncoarsening step the projected partition is locally
improved.  We implement the classic FM scheme:

* every *boundary* vertex gets a gain = (edge weight to the other part)
  − (edge weight to its own part);
* vertices are tentatively moved in best-gain-first order, each vertex
  at most once per pass, even when the gain is negative (hill
  climbing);
* moves must keep both parts within the balance tolerance, except that
  balance-*improving* moves are always allowed;
* at the end of the pass the move sequence is rolled back to the prefix
  with the best (cut, imbalance) seen, and passes repeat until one
  yields no improvement.

The pass keeps its candidates in per-gain buckets drained inline
(highest gain first, push order within a gain — the order of a heap
keyed by ``(-gain, push counter)``), updates gains by exactly ``±2w``
per moved neighbor and keeps the imbalance in a local that changes
only on a commit.  FM draws no random numbers.

A direct k-way variant (:func:`kway_refine`) runs greedy
best-neighbor-part moves on the final k-way partition — cheaper than FM
bookkeeping across k parts and enough to clean up recursive-bisection
seams, which is how METIS's k-way refinement is typically approximated
in reimplementations.  :func:`boundary_kway_refine` is its work-list
form: it touches only boundary vertices and move cascades, which is
what warm-started repartitioning runs from a projected previous
partition.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro import kernels
from repro.metis.graph import CSRGraph


def fm_refine(
    graph: CSRGraph,
    part: List[int],
    targets: Tuple[float, float],
    ubfactor: float = 1.05,
    max_passes: int = 8,
    rng: Optional[random.Random] = None,
) -> int:
    """FM refinement of a bisection, in place.  Returns the final cut.

    ``targets`` are the desired vertex-weight totals of parts 0 and 1;
    ``ubfactor`` is the allowed overweight ratio (1.05 = 5% slack, the
    METIS default ballpark).  FM draws no random numbers: every pop,
    tie-break and rollback is a function of the graph, ``part`` and
    the targets, and ``rng`` is accepted for the multilevel callers'
    uniform signature and never read.
    """
    kr = kernels.active()
    weights = [float(w) for w in kr.part_weights(graph, part, 2)]
    cut = graph.cut_of(part)
    # every move gain lies in [-bound, +bound]; the bound depends on the
    # graph alone, so one call serves every pass
    bound = kr.max_weighted_degree(graph)

    for _ in range(max_passes):
        improved = _fm_pass(graph, part, weights, targets, ubfactor, cut, bound)
        if improved is None:
            break
        cut = improved
    return cut


def _fm_pass(
    graph: CSRGraph,
    part: List[int],
    weights: List[float],
    targets: Tuple[float, float],
    ubfactor: float,
    start_cut: int,
    bound: int,
):
    """One FM pass.  Returns the new cut if it improved, else None.

    Mutates ``part`` and ``weights`` to the best prefix state.

    Gains live in per-gain buckets over ``[-bound, +bound]``, drained
    inline: the highest nonempty bucket first, each in push order — the
    pop order of a lazy-deletion heap keyed by ``(-gain, push
    counter)``.  Every gain change re-pushes, and a popped entry whose
    vertex is locked or whose gain has changed since is skipped.  The
    buckets are seeded with one batched ``gain_vector`` over the
    boundary; a move shifts each unlocked neighbor's gain by exactly
    ``±2w`` (the edge flips between internal and external), and a
    vertex first reached mid-pass gets one full recompute.

    The imbalance (max over the parts of weight/target, infinite where
    a target is not positive) changes only on a commit, so it lives in
    a local.
    """
    n = graph.num_vertices
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt
    kr = kernels.active()
    t0, t1 = targets
    cap0, cap1 = ubfactor * t0, ubfactor * t1
    inf = float("inf")
    w0, w1 = weights

    # gain[v] is only meaningful where known[v] is set (vertices that
    # have entered the buckets)
    gain = [0] * n
    known = bytearray(n)
    locked = bytearray(n)
    # bucket bound + g holds the entries pushed at gain g; heads[b] is
    # bucket b's read cursor, top the highest possibly-nonempty bucket
    buckets: List[List[int]] = [[] for _ in range(2 * bound + 1)]
    heads = [0] * (2 * bound + 1)
    top = -1

    # seed with boundary vertices; the kernel returns them ascending,
    # which is exactly the legacy scan's push order
    boundary = kr.boundary_list(graph, part)
    for v, g in zip(boundary, kr.gain_vector(graph, part, boundary)):
        gain[v] = g
        known[v] = 1
        b = g + bound
        buckets[b].append(v)
        if b > top:
            top = b

    moves: List[int] = []  # sequence of moved vertices
    cur_cut = start_cut
    best_cut = start_cut
    r0 = w0 / t0 if t0 > 0 else inf
    r1 = w1 / t1 if t1 > 0 else inf
    imb = r1 if r1 > r0 else r0
    best_imb = imb
    best_prefix = 0

    while top >= 0:
        bucket = buckets[top]
        head = heads[top]
        if head == len(bucket):
            top -= 1
            continue
        heads[top] = head + 1
        v = bucket[head]
        if locked[v] or gain[v] != top - bound:
            continue
        vw = vwgt[v]
        src = part[v]
        if src == 0:
            nw0, nw1 = w0 - vw, w1 + vw
            # the tolerance has a floor of one vertex above target (as
            # in METIS) — otherwise FM freezes solid on perfectly
            # balanced unit-weight graphs, where any single move
            # exceeds a pure ratio bound
            over = nw1 > cap1 and nw1 > t1 + vw
        else:
            nw0, nw1 = w0 + vw, w1 - vw
            over = nw0 > cap0 and nw0 > t0 + vw
        r0 = nw0 / t0 if t0 > 0 else inf
        r1 = nw1 / t1 if t1 > 0 else inf
        imb_after = r1 if r1 > r0 else r0
        if over and imb_after >= imb:
            continue  # would unbalance beyond tolerance without helping

        # commit the tentative move
        part[v] = 1 - src
        w0, w1 = nw0, nw1
        imb = imb_after
        cur_cut -= top - bound
        locked[v] = 1
        moves.append(v)
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if locked[u]:
                continue
            if known[u]:
                if part[u] == src:
                    g_u = gain[u] + 2 * adjwgt[i]
                else:
                    g_u = gain[u] - 2 * adjwgt[i]
            else:
                pu = part[u]
                g_u = 0
                for j in range(xadj[u], xadj[u + 1]):
                    if part[adjncy[j]] == pu:
                        g_u -= adjwgt[j]
                    else:
                        g_u += adjwgt[j]
                known[u] = 1
            gain[u] = g_u
            b = g_u + bound
            buckets[b].append(u)
            if b > top:
                top = b

        if cur_cut < best_cut or (cur_cut == best_cut and imb < best_imb):
            best_cut = cur_cut
            best_imb = imb
            best_prefix = len(moves)

    # roll back to the best prefix
    weights[0], weights[1] = w0, w1
    for v in moves[best_prefix:]:
        src = part[v]
        part[v] = 1 - src
        weights[src] -= vwgt[v]
        weights[1 - src] += vwgt[v]

    if best_cut < start_cut:
        return best_cut
    return None


def rebalance_kway(
    graph: CSRGraph,
    part: List[int],
    k: int,
    targets: Sequence[float],
    ubfactor: float = 1.05,
) -> int:
    """Force every part under its weight limit, minimising cut damage.

    Needed because projected partitions can carry lumpy coarse-vertex
    imbalance that gain-driven refinement alone cannot repair: it moves
    the cheapest (smallest cut-loss) vertices out of each overweight
    part into the lightest parts.  Returns the number of forced moves.
    """
    n = graph.num_vertices
    vwgt = graph.vwgt
    weights = [float(w) for w in kernels.active().part_weights(graph, part, k)]
    maxw = max(vwgt, default=1)

    moves = 0
    for p in range(k):
        limit = max(ubfactor * targets[p], targets[p] + maxw)
        if weights[p] <= limit:
            continue
        # candidates in p, cheapest cut-loss first; connectivity rows
        # come from one batched kernel call over the members (legacy:
        # a python conn dict per vertex).  Preferred destination is the
        # strongest-connected other part, first-encounter order
        # breaking ties — the conn-dict iteration order this replaces.
        members = [v for v in range(n) if part[v] == p]
        conn_rows, pos_rows, _movable = kernels.active().conn_matrix(
            graph, part, k, members)
        candidates = []
        base = 0
        for v in members:
            internal = conn_rows[base + p]
            external_best = 0
            best_dst = -1
            best_pos = -1
            for q in range(k):
                if q == p:
                    continue
                fp = pos_rows[base + q]
                if fp < 0:
                    continue
                w = conn_rows[base + q]
                if w < external_best or w == 0:
                    continue
                if w == external_best and fp > best_pos:
                    continue
                external_best = w
                best_dst = q
                best_pos = fp
            candidates.append((internal - external_best, v, best_dst))
            base += k
        candidates.sort()
        for _loss, v, preferred in candidates:
            if weights[p] <= limit:
                break
            dst = preferred
            if dst < 0 or weights[dst] + vwgt[v] > ubfactor * targets[dst]:
                # fallback: the lightest part (by weight/target ratio)
                # that can actually absorb v.  Zero-target parts are
                # never destinations (they should hold nothing — the
                # old ratio of 0 made them attract every forced move),
                # and the destination must stay under its own
                # rebalance limit, the same criterion that made part p
                # overweight (the old fallback skipped the capacity
                # check entirely and could overfill the part it chose).
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
                    continue  # nobody can take v without overfilling
            if dst == p:
                continue
            weights[p] -= vwgt[v]
            weights[dst] += vwgt[v]
            part[v] = dst
            moves += 1
    return moves


def _conn_row(graph, part: Sequence[int], k: int, v: int):
    """Fresh connectivity row of one vertex, ``conn_matrix`` layout.

    The per-vertex fallback the refinement loops use for *dirty*
    vertices — ones whose batched row a mid-pass move invalidated.
    Rows are invalidated rather than patched: the summed weights could
    be delta-maintained, but the first-encounter positions cannot (a
    neighbor leaving a part may expose a *later* first position, which
    no delta records), and a stale position would corrupt the tie-break
    order the selectors contract to.  The third return mirrors
    ``conn_matrix``'s per-row ``movable`` flag.
    """
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    conn = [0] * k
    pos = [-1] * k
    for i in range(xadj[v], xadj[v + 1]):
        p = part[adjncy[i]]
        if p < 0:
            continue
        conn[p] += adjwgt[i]
        if pos[p] < 0:
            pos[p] = i
    own = part[v]
    internal = conn[own] if own >= 0 else 0
    movable = 0
    for p in range(k):
        if p != own and pos[p] >= 0 and conn[p] > internal:
            movable = 1
            break
    return conn, pos, movable


def _select_kway_move(
    pv: int,
    vw: int,
    conn: Sequence[int],
    pos: Sequence[int],
    base: int,
    k: int,
    weights: List[float],
    targets: Sequence[float],
    ubfactor: float,
):
    """Best admissible destination part for one vertex, or its own part.

    The single source of the k-way move rules — positive cut gain,
    balance tolerance with a one-vertex floor, never empty a part —
    shared by :func:`kway_refine` and :func:`boundary_kway_refine` so
    warm and cold refinement can never drift apart.  ``conn``/``pos``
    are flat ``conn_matrix`` rows read at offset ``base``; among
    equal-gain admissible parts the smallest first-encounter position
    wins, which is exactly the iteration order of the per-vertex conn
    dict this selector replaces.  Returns (part, gain).
    """
    internal = conn[base + pv]
    best_part = pv
    best_gain = 0
    best_pos = -1
    for p in range(k):
        if p == pv:
            continue
        fp = pos[base + p]
        if fp < 0:
            continue
        gain = conn[base + p] - internal
        if gain < best_gain or gain <= 0:
            continue
        if gain == best_gain and fp > best_pos:
            continue
        if weights[p] + vw > max(ubfactor * targets[p], targets[p] + vw):
            continue
        if weights[pv] - vw <= 0:
            continue
        best_gain = gain
        best_part = p
        best_pos = fp
    return best_part, best_gain


def boundary_kway_refine(
    graph: CSRGraph,
    part: List[int],
    k: int,
    targets: Sequence[float],
    ubfactor: float = 1.05,
    max_moves_factor: float = 2.0,
) -> int:
    """Queue-driven greedy k-way refinement touching only the boundary.

    The warm-start workhorse: a projected previous partition is already
    good almost everywhere, so instead of scanning every vertex per pass
    (as :func:`kway_refine` does) this seeds a FIFO work-list with the
    *boundary* vertices and re-enqueues only the neighborhood of each
    applied move — O(boundary + cascades) instead of O(passes × n).
    Move rules (gain, balance tolerance, never empty a part) match
    :func:`kway_refine`; total moves are capped at
    ``max_moves_factor × n`` to bound oscillation.  Returns the number
    of moves applied — deliberately *not* the cut, which would cost a
    full O(E) scan on the sub-O(E) warm path (callers that want the
    cut compute it once at the end, as ``part_graph`` does).

    Connectivity rows for the whole seed boundary come from one batched
    ``conn_matrix`` call; a cached row stays valid until a *neighbor*
    moves (a vertex's own move never changes its row — the row sums
    neighbors' parts), at which point the vertex is marked dirty and
    its next dequeue recomputes the row fresh, reproducing the legacy
    per-dequeue conn dict exactly.
    """
    n = graph.num_vertices
    xadj, adjncy, vwgt = graph.xadj, graph.adjncy, graph.vwgt
    kr = kernels.active()
    rebalance_kway(graph, part, k, targets, ubfactor=ubfactor)
    weights = [float(w) for w in kr.part_weights(graph, part, k)]

    boundary = kr.boundary_list(graph, part)
    conn_rows, pos_rows, movable = kr.conn_matrix(graph, part, k, boundary)
    row_of = {v: i for i, v in enumerate(boundary)}

    dirty = bytearray(n)
    queued = bytearray(n)
    queue: "deque[int]" = deque(boundary)
    for v in boundary:
        queued[v] = 1

    moves = 0
    max_moves = int(max_moves_factor * n) + 1
    while queue and moves < max_moves:
        v = queue.popleft()
        queued[v] = 0
        pv = part[v]
        if dirty[v]:
            conn, pos, mv = _conn_row(graph, part, k, v)
            base = 0
        else:
            # only seed-boundary vertices can still be clean: mid-pass
            # enqueues always come with a moved neighbor (dirty)
            conn, pos = conn_rows, pos_rows
            r = row_of[v]
            base = r * k
            mv = movable[r]
        if not mv:
            # no positive-gain destination exists for this row; the
            # selector could only return "stay" (its balance checks
            # never create a move), so skipping it is exact
            continue
        best_part, _gain = _select_kway_move(
            pv, vwgt[v], conn, pos, base, k, weights, targets, ubfactor)
        if best_part == pv:
            continue
        weights[pv] -= vwgt[v]
        weights[best_part] += vwgt[v]
        part[v] = best_part
        moves += 1
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            dirty[u] = 1
            if not queued[u]:
                queue.append(u)
                queued[u] = 1
    return moves


def kway_refine(
    graph: CSRGraph,
    part: List[int],
    k: int,
    targets: Sequence[float],
    ubfactor: float = 1.05,
    max_passes: int = 4,
) -> int:
    """Greedy direct k-way refinement, in place.  Returns the final cut.

    A rebalancing pass first repairs any projected imbalance; each
    greedy pass then scans boundary vertices and moves a vertex to the
    neighboring part with the largest positive cut gain, subject to the
    balance tolerance.
    """
    n = graph.num_vertices
    xadj, adjncy, vwgt = graph.xadj, graph.adjncy, graph.vwgt
    kr = kernels.active()
    rebalance_kway(graph, part, k, targets, ubfactor=ubfactor)
    weights = [float(w) for w in kr.part_weights(graph, part, k)]
    cut = graph.cut_of(part)

    for _ in range(max_passes):
        moved = 0
        # restrict the scan to vertices that can possibly move: the
        # boundary at pass start plus anything adjacent to a mid-pass
        # move.  A vertex outside that set has all neighbors in its own
        # part at scan time, so _select_kway_move returns (pv, 0) for
        # it regardless of the weight state — skipping it is exact.
        # Connectivity rows are batched once per pass over the
        # boundary and stay valid until a neighbor moves (dirty), when
        # the scan recomputes the row fresh — values identical to the
        # legacy per-visit conn dict either way.
        boundary = kr.boundary_list(graph, part)
        conn_rows, pos_rows, movable = kr.conn_matrix(graph, part, k, boundary)
        row_of = {u: i for i, u in enumerate(boundary)}
        candidate = bytearray(n)
        for v in boundary:
            candidate[v] = 1
        dirty = bytearray(n)
        for v in range(n):
            if not candidate[v]:
                continue
            pv = part[v]
            if dirty[v]:
                conn, pos, mv = _conn_row(graph, part, k, v)
                base = 0
            else:
                conn, pos = conn_rows, pos_rows
                r = row_of[v]
                base = r * k
                mv = movable[r]
            if not mv:
                continue  # no positive-gain destination: selector can't move it
            best_part, best_gain = _select_kway_move(
                pv, vwgt[v], conn, pos, base, k, weights, targets, ubfactor
            )
            if best_part != pv:
                weights[pv] -= vwgt[v]
                weights[best_part] += vwgt[v]
                part[v] = best_part
                cut -= best_gain
                moved += 1
                for i in range(xadj[v], xadj[v + 1]):
                    u = adjncy[i]
                    candidate[u] = 1
                    dirty[u] = 1
        if moved == 0:
            break
    return cut
