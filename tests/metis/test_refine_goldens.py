"""Pinned golden digests of the refinement path.

The digests below were captured from the *pre-batching* implementations
(per-vertex dict/heap loops) immediately before the kernel rewrite;
the rewritten path must keep reproducing them bit-for-bit under every
backend.  They are deliberately brittle: any change to refinement
results — cold recursive/direct METIS, warm-started repartitioning, or
the raw refine functions — flips a digest and must be a conscious,
documented decision (re-capture with this file's helpers).  Re-pinning
a digest requires bumping ``ALGORITHM_VERSION`` in
``repro/experiments/results.py`` in the same commit: result stores then
recompute the cells computed by the old code instead of serving them.
Both tests assert the version together with the digest, so bumping the
version fails them too until this file is updated with it.
"""

import hashlib
import json
import random

import pytest

from repro import kernels
from repro.experiments.results import ALGORITHM_VERSION
from repro.graph import generators as gen
from repro.graph.undirected import collapse_to_undirected
from repro.metis.api import part_graph
from repro.metis.graph import CSRGraph
from repro.metis.refine import (
    boundary_kway_refine,
    fm_refine,
    kway_refine,
    rebalance_kway,
)

#: sha256 prefixes captured from the pre-rewrite implementations
REFINE_DIGEST = "cc431a0ab81341c2"
PART_GRAPH_DIGEST = "e19a1e424d96b43e"

_REPIN = (
    "the refinement goldens are pinned together with ALGORITHM_VERSION: "
    "re-pinning a golden requires bumping it in "
    "repro/experiments/results.py in the same commit"
)


def _h(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _rand_graph(seed, n=40, m=90):
    rng = random.Random(seed)
    edges = {}
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + rng.randint(1, 5)
    vwgt = [rng.randint(1, 9) for _ in range(n)]
    return CSRGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()],
                               vwgt=vwgt)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_refine_functions_match_pre_rewrite_digest(backend):
    ref = {}
    with kernels.using_backend(backend):
        for seed in range(12):
            g = _rand_graph(seed)
            n = g.num_vertices
            rng = random.Random(seed)
            total = float(g.total_vertex_weight)

            part = [rng.randrange(2) for _ in range(n)]
            cut = fm_refine(g, part, (total / 2, total / 2),
                            rng=random.Random(seed))
            ref[f"fm_{seed}"] = (cut, list(part))

            for k in (3, 4):
                targets = [total / k] * k
                part = [rng.randrange(k) for _ in range(n)]
                cut = kway_refine(g, list(part), k, targets)
                p2 = list(part)
                kway_refine(g, p2, k, targets)
                ref[f"kway_{seed}_{k}"] = (cut, p2)

                p3 = list(part)
                moves = boundary_kway_refine(g, p3, k, targets)
                ref[f"bkway_{seed}_{k}"] = (moves, p3)

                p4 = [min(rng.randrange(k), rng.randrange(k))
                      for _ in range(n)]
                moves = rebalance_kway(g, p4, k, targets)
                ref[f"rebal_{seed}_{k}"] = (moves, p4)
    assert (ALGORITHM_VERSION, _h(ref)) == (1, REFINE_DIGEST), _REPIN


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_part_graph_cold_and_warm_match_pre_rewrite_digest(backend):
    pg = {}
    with kernels.using_backend(backend):
        for seed in range(4):
            dg = gen.weighted_communities(4, 12, 10, 2, random.Random(seed))
            und = collapse_to_undirected(dg)
            for k in (2, 4):
                for scheme in ("recursive", "direct"):
                    res = part_graph(und, k, seed=seed, scheme=scheme)
                    pg[f"cold_{seed}_{k}_{scheme}"] = (
                        res.edge_cut, sorted(res.assignment.items()))
                cold = part_graph(und, k, seed=seed)
                dg2 = gen.weighted_communities(
                    4, 14, 10, 2, random.Random(seed + 100))
                und2 = collapse_to_undirected(dg2)
                warm = part_graph(und2, k, seed=seed,
                                  warm_start=cold.assignment)
                pg[f"warm_{seed}_{k}"] = (
                    warm.warm, warm.edge_cut, sorted(warm.assignment.items()))
    assert (ALGORITHM_VERSION, _h(pg)) == (1, PART_GRAPH_DIGEST), _REPIN
