"""One full multilevel bisection: coarsen → initial partition → refine.

This is the V-cycle of the multilevel method.  The initial partition is
computed on the coarsest graph (greedy graph growing by default, with
spectral bisection as an optional alternative), then projected back up
the ladder with an FM refinement pass at every level.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.metis.coarsen import coarsen, project_partition
from repro.metis.graph import CSRGraph
from repro.metis.initial import greedy_graph_growing, spectral_bisection
from repro.metis.refine import fm_refine


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
    importable or the eigensolver fails).  Returns the 0/1 part vector.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    if n == 1:
        return [0]

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
