"""Numpy backend: vectorised forms of the kernels numpy accelerates.

The columns ``ColumnarLog`` exposes are stdlib ``array`` objects, which
support the buffer protocol — ``np.frombuffer`` wraps them without
copying.  A numpy form exists only for a kernel in ``ACCELERATED``:
whole-array recounts and whole-graph or whole-boundary refinement
batches, which are large enough to amortise numpy's per-call set-up.
Every other kernel name on this module is the :mod:`repro.kernels.pure`
object itself: the per-metric-window kernels run on windows of a few
dozen rows, where ``frombuffer``/``unique`` overhead loses to the plain
loop (``docs/kernels.md`` has the measurements).

Selected whenever numpy is importable (see
:mod:`repro.kernels.backend`).  Bit-identical to
:mod:`repro.kernels.pure`; ``tests/kernels/test_parity.py`` holds it
to that across all kernels.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.pure import (
    CSRAccumulator,
    account_window,
    boundary_list,
    csr_from_window,
    gain_vector,
    graph_batch,
    hem_matching,
    part_weights,
    unassigned_list,
    window_pass,
)
from repro.kernels.pure import conn_matrix as _pure_conn_matrix
from repro.kernels.pure import kl_proposals as _pure_kl_proposals

#: the kernels this backend has its own form for, each claiming a >=3x
#: microloop speedup over ``pure`` (enforced by
#: benchmarks/bench_kernels.py on medium-scale batches); every other
#: kernel is the pure object itself (``tests/kernels/test_backend.py``)
ACCELERATED = frozenset({
    "static_cut_count", "max_index", "cut_value", "conn_matrix",
    "kl_proposals", "max_weighted_degree",
})

__all__ = [
    "ACCELERATED", "CSRAccumulator", "account_window", "boundary_list",
    "conn_matrix", "csr_from_window", "cut_value", "gain_vector",
    "graph_batch", "hem_matching", "kl_proposals", "max_index",
    "max_weighted_degree", "part_weights", "static_cut_count",
    "unassigned_list", "window_pass",
]

_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)


def _win(col, lo: int, hi: int, dtype):
    """Zero-copy window of a buffer-protocol column; copies for lists."""
    try:
        return np.frombuffer(col, dtype=dtype, count=hi - lo,
                             offset=lo * dtype.itemsize)
    except TypeError:
        return np.asarray(col[lo:hi], dtype=dtype)


def _whole(col, dtype):
    try:
        return np.frombuffer(col, dtype=dtype)
    except TypeError:
        return np.asarray(col, dtype=dtype)


def max_index(src, dst, lo: int, hi: int) -> int:
    if hi <= lo:
        return -1
    sl = _win(src, lo, hi, _I64)
    dl = _win(dst, lo, hi, _I64)
    m = sl.max()
    md = dl.max()
    return int(md if md > m else m)


def static_cut_count(esrc, edst, shard) -> int:
    if not len(esrc):
        return 0
    es = _whole(esrc, _I64)
    ed = _whole(edst, _I64)
    sh = _whole(shard, _I32)
    return int((sh[es] != sh[ed]).sum())


# ----------------------------------------------------------------------
# partition refinement primitives over cached CSR views


def _np_csr(graph):
    """Cached numpy views of a CSRGraph's arrays (+ per-entry vertex ids)."""
    cached = getattr(graph, "_np_csr_cache", None)
    if cached is not None and cached[0] == len(graph.adjncy):
        return cached[1]
    xa = np.asarray(graph.xadj, dtype=np.int64)
    ad = np.asarray(graph.adjncy, dtype=np.int64)
    aw = np.asarray(graph.adjwgt, dtype=np.int64)
    vw = np.asarray(graph.vwgt, dtype=np.int64)
    vid = np.repeat(np.arange(len(xa) - 1, dtype=np.int64), np.diff(xa))
    views = (xa, ad, aw, vw, vid)
    try:
        graph._np_csr_cache = (len(graph.adjncy), views)
    except AttributeError:
        pass
    return views


def cut_value(graph, part) -> int:
    _xa, ad, aw, _vw, vid = _np_csr(graph)
    p = np.asarray(part, dtype=np.int64)
    cross = p[ad] != p[vid]
    return int(aw[cross].sum()) // 2


#: below this many subject vertices the numpy set-up cost exceeds the
#: pure loop; fall back (bit-identical either way)
_SMALL = 16


def max_weighted_degree(graph) -> int:
    _xa, _ad, aw, vw, vid = _np_csr(graph)
    if not len(aw):
        return 0
    return int(np.bincount(vid, weights=aw, minlength=len(vw)).max())


def _ragged_edges(xa, vs):
    """Row index + absolute adjncy index of every edge of ``vs``.

    ``row`` repeats each subject-vertex position by its degree;
    ``edge_idx`` enumerates ``adjncy[xadj[v]:xadj[v+1]]`` ascending
    within each row — the flat order is therefore (row, adjncy index)
    lexicographic, which the first-occurrence extraction below relies
    on.
    """
    starts = xa[vs]
    counts = xa[vs + 1] - starts
    total = int(counts.sum())
    row = np.repeat(np.arange(len(vs), dtype=np.int64), counts)
    # starts - flat_start, broadcast per edge (flat_start = cumsum-counts)
    shift = np.repeat(starts + counts - np.cumsum(counts), counts)
    edge_idx = np.arange(total, dtype=np.int64) + shift
    return row, edge_idx


def conn_matrix(
    graph, part, k: int, vertices,
) -> Tuple[List[int], List[int], List[int]]:
    if len(vertices) < _SMALL:
        return _pure_conn_matrix(graph, part, k, vertices)
    xa, ad, aw, _vw, _vid = _np_csr(graph)
    vs = np.asarray(vertices, dtype=np.int64)
    m = len(vs)
    p = np.asarray(part, dtype=np.int64)
    conn = np.zeros(m * k, dtype=np.int64)
    first_pos = np.full(m * k, -1, dtype=np.int64)
    row, edge_idx = _ragged_edges(xa, vs)
    if len(row):
        nbr_part = p[ad[edge_idx]]
        valid = nbr_part >= 0
        if not valid.all():
            row = row[valid]
            edge_idx = edge_idx[valid]
            nbr_part = nbr_part[valid]
        keys = row * k + nbr_part
        conn = np.bincount(keys, weights=aw[edge_idx],
                           minlength=m * k).astype(np.int64)
        # edge_idx ascends within a row, so each key's smallest adjncy
        # index — the pure first_pos — is its first occurrence in flat
        # order.  Scatter in reverse: duplicate fancy-index writes keep
        # the last one, which in reversed order is the first occurrence.
        first_pos[keys[::-1]] = edge_idx[::-1]
    conn2 = conn.reshape(m, k)
    fp2 = first_pos.reshape(m, k)
    own = p[vs]
    own_col = np.where(own >= 0, own, 0)
    rows = np.arange(m)
    internal = np.where(own >= 0, conn2[rows, own_col], 0)
    has_gain = (fp2 >= 0) & (conn2 > internal[:, None])
    assigned = np.flatnonzero(own >= 0)
    has_gain[assigned, own_col[assigned]] = False
    movable = has_gain.any(axis=1).astype(np.int64)
    return conn.tolist(), first_pos.tolist(), movable.tolist()


def kl_proposals(graph, shard, k: int,
                 min_gain: int) -> List[Tuple[int, int, int, int]]:
    xa, ad, aw, _vw, vid = _np_csr(graph)
    n = len(xa) - 1
    if n < _SMALL or not len(ad):
        return _pure_kl_proposals(graph, shard, k, min_gain)
    sh = np.asarray(shard, dtype=np.int64)
    nbr_sh = sh[ad]
    vidx = np.flatnonzero((nbr_sh >= 0) & (sh[vid] >= 0))
    keys = vid[vidx] * k + nbr_sh[vidx]
    conn = np.bincount(keys, weights=aw[vidx],
                       minlength=n * k).astype(np.int64).reshape(n, k)
    big = len(ad)
    first_pos = np.full(n * k, big, dtype=np.int64)
    # reverse-order scatter: last duplicate write wins, so reversed
    # order leaves each key's first occurrence (vidx is ascending)
    first_pos[keys[::-1]] = vidx[::-1]
    first_pos = first_pos.reshape(n, k)

    rows = np.arange(n)
    own = np.where(sh[:n] >= 0, sh[:n], 0)
    internal = conn[rows, own]
    gain = conn - internal[:, None]
    cand = first_pos < big
    cand[rows, own] = False
    cand &= gain >= min_gain
    cand[sh[:n] < 0] = False

    any_cand = cand.any(axis=1)
    gm = np.where(cand, gain, np.iinfo(np.int64).min)
    best_gain = gm.max(axis=1)
    # among max-gain candidates, the smallest first-encounter adjncy
    # index wins — the legacy conn-dict iteration-order tie-break
    tied_pos = np.where(cand & (gm == best_gain[:, None]), first_pos, big)
    best_t = tied_pos.argmin(axis=1)
    out_rows = np.flatnonzero(any_cand)
    return list(zip(out_rows.tolist(),
                    sh[out_rows].tolist(),
                    best_t[out_rows].tolist(),
                    best_gain[out_rows].tolist()))
