"""One full multilevel bisection: coarsen → initial partition → refine.

This is the V-cycle of the multilevel method.  The initial partition is
computed on the coarsest graph (greedy graph growing by default, with
spectral bisection as an optional alternative), then projected back up
the ladder with an FM refinement pass at every level.

Greedy bisections are memoised on the graph (``graph.memo("bisect")``).
Such a bisection is a deterministic function of the graph's arrays, the
targets and options and the RNG state it starts from: coarsening and
greedy growing draw only from ``rng``, and FM draws nothing.  So the
memo key is every input other than the graph — ``targets``,
``ubfactor``, ``coarsen_to``, ``ntrials``, the RNG state and the
active kernel backend's name (a parity test that reuses one graph
object under both backends still compares two computations) — and a
hit is exact: it returns a copy of the stored part and leaves ``rng``
in the state the computation left it in.  The arrays of a
:class:`~repro.metis.graph.CSRGraph` are never mutated after
construction, which is what makes a stored part valid for the graph's
lifetime; the memo dies with the graph.  Spectral bisections are not
memoised: whether scipy imports at all can change between calls, and
with it whether the bisection falls back to greedy growing.

Hits happen when one graph object is bisected twice from one RNG
state: the replay hands every method of a window the same graph
(:meth:`~repro.core.base.ReplayContext.window_graph`), and
pmetis-style recursion starts every k from the same 2-way split, so
cold METIS's k=2, 4 and 8 cells that repartition together compute
that split once (:mod:`repro.metis.kway` shares the halves too).
"""

from __future__ import annotations

import random
from array import array
from typing import List, Tuple

from repro import kernels
from repro.metis.coarsen import coarsen, project_partition
from repro.metis.graph import CSRGraph
from repro.metis.initial import greedy_graph_growing, spectral_bisection
from repro.metis.refine import fm_refine


def _compact_state(rng: random.Random) -> Tuple[int, array, object]:
    """``rng.getstate()`` with its 625 state words in an ``array("I")``:
    2.5 KB, where the tuple of ints takes ~22 KB."""
    version, words, gauss_next = rng.getstate()
    return version, array("I", words), gauss_next


def multilevel_bisect(
    graph: CSRGraph,
    targets: Tuple[float, float],
    rng: random.Random,
    ubfactor: float = 1.05,
    coarsen_to: int = 64,
    initial: str = "greedy",
    ntrials: int = 8,
) -> List[int]:
    """Bisect ``graph`` into parts with the given weight targets.

    ``initial`` selects the coarsest-level algorithm: ``"greedy"``
    (default) or ``"spectral"`` (falls back to greedy if scipy is not
    importable or the eigensolver fails).  Returns the 0/1 part vector,
    from the graph's memo when the same bisection ran on it before
    (see the module docstring).
    """
    n = graph.num_vertices
    if n == 0:
        return []
    if n == 1:
        return [0]

    if initial != "greedy":
        return _bisect(graph, targets, rng, ubfactor, coarsen_to, initial, ntrials)
    memo = graph.memo("bisect")
    version, words, gauss_next = _compact_state(rng)
    key = (tuple(targets), ubfactor, coarsen_to, ntrials,
           kernels.backend_name(), version, words.tobytes(), gauss_next)
    entry = memo.get(key)
    if entry is None:
        part = _bisect(graph, targets, rng, ubfactor, coarsen_to, initial, ntrials)
        entry = memo[key] = (part, _compact_state(rng))
    else:
        version, words, gauss_next = entry[1]
        rng.setstate((version, tuple(words), gauss_next))
    # a copy: callers may mutate the part they get, the memo's must not change
    return list(entry[0])


def _bisect(
    graph: CSRGraph,
    targets: Tuple[float, float],
    rng: random.Random,
    ubfactor: float,
    coarsen_to: int,
    initial: str,
    ntrials: int,
) -> List[int]:
    """The V-cycle itself, on a graph of at least two vertices."""
    levels = coarsen(graph, rng, coarsen_to=coarsen_to)
    coarsest = levels[-1].graph

    if initial == "spectral":
        try:
            part = spectral_bisection(coarsest, targets[0])
        except RuntimeError:
            part = greedy_graph_growing(coarsest, targets[0], rng, ntrials=ntrials)
    elif initial == "greedy":
        part = greedy_graph_growing(coarsest, targets[0], rng, ntrials=ntrials)
    else:
        raise ValueError(f"unknown initial partitioner: {initial!r}")

    fm_refine(coarsest, part, targets, ubfactor=ubfactor, rng=rng)

    # walk the ladder back up, refining at every level
    for level_idx in range(len(levels) - 1, 0, -1):
        level = levels[level_idx]
        finer = levels[level_idx - 1].graph
        part = project_partition(level, part)
        fm_refine(finer, part, targets, ubfactor=ubfactor, rng=rng)
    return part
