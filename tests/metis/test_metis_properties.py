"""Property-based tests for the multilevel partitioner."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metis.api import part_graph
from repro.metis.graph import CSRGraph
from repro.metis.kway import kway_partition


@st.composite
def weighted_graphs(draw, max_n=20):
    n = draw(st.integers(min_value=4, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=n - 1,
                 max_size=min(len(possible), 3 * n), unique=True)
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=20),
                            min_size=len(edges), max_size=len(edges)))
    vwgt = draw(st.lists(st.integers(min_value=1, max_value=4),
                         min_size=n, max_size=n))
    return CSRGraph.from_edges(
        n, [(u, v, w) for (u, v), w in zip(edges, weights)], vwgt=vwgt
    )


@given(weighted_graphs(), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_partition_is_total_and_valid(g, k, seed):
    part = kway_partition(g, k, random.Random(seed))
    assert len(part) == g.num_vertices
    assert all(0 <= p < k for p in part)


@given(weighted_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_cut_never_exceeds_total_weight(g, seed):
    part = kway_partition(g, 2, random.Random(seed))
    assert 0 <= g.cut_of(part) <= g.total_edge_weight


@given(weighted_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_bisection_weight_within_tolerance(g, seed):
    """On tiny graphs with lumpy vertex weights perfect balance can be
    unattainable, but the heavy side can never exceed target by more
    than the heaviest single vertex plus the ub slack."""
    part = kway_partition(g, 2, random.Random(seed), ubfactor=1.05)
    target = g.total_vertex_weight / 2.0
    heaviest = max(g.vwgt)
    w = g.part_weights(part, 2)
    assert max(w) <= 1.05 * target + heaviest


@given(weighted_graphs())
@settings(max_examples=30, deadline=None)
def test_deterministic_under_same_seed(g):
    a = kway_partition(g, 3, random.Random(7))
    b = kway_partition(g, 3, random.Random(7))
    assert a == b


@given(weighted_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_no_part_empty_when_k_le_n(g, seed):
    k = min(3, g.num_vertices)
    part = kway_partition(g, k, random.Random(seed))
    assert len(set(part)) == k


@st.composite
def sparse_weighted_graphs(draw):
    """Graphs with isolated vertices, unequal vertex weights and
    non-contiguous vertex ids, plus the edge map the recounts read."""
    n = draw(st.integers(min_value=1, max_value=30))
    ids = [1000 + 7 * i for i in draw(st.permutations(range(n)))]
    edges = {}
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0) + draw(st.integers(1, 9))
    vwgt = draw(st.lists(st.integers(min_value=1, max_value=9),
                         min_size=n, max_size=n))
    graph = CSRGraph.from_edges(
        n, [(u, v, w) for (u, v), w in edges.items()], vwgt=vwgt)
    graph = dataclasses.replace(graph, orig_ids=ids)
    weight_of = {ids[v]: vwgt[v] for v in range(n)}
    edge_weights = {(ids[u], ids[v]): w for (u, v), w in edges.items()}
    return graph, weight_of, edge_weights


def _assert_partition_invariants(res, k, weight_of, edge_weights):
    assert set(res.assignment) == set(weight_of)
    assert all(0 <= p < k for p in res.assignment.values())
    cut = sum(w for (u, v), w in edge_weights.items()
              if res.assignment[u] != res.assignment[v])
    assert res.edge_cut == cut
    weights = [0] * k
    for v, p in res.assignment.items():
        weights[p] += weight_of[v]
    assert res.part_weights == weights


@given(sparse_weighted_graphs(), st.integers(min_value=1, max_value=5),
       st.sampled_from(["recursive", "direct"]),
       st.integers(min_value=0, max_value=3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_part_graph_invariants_against_recounts(case, k, scheme, seed, rnd):
    """Cold and warm ``part_graph`` results against recounts written
    here: every vertex assigned exactly once, every part in range, and
    the reported cut and part weights equal to a count over the drawn
    edges and vertex weights (not ``cut_of``/``cut_value``)."""
    graph, weight_of, edge_weights = case
    cold = part_graph(graph, k, seed=seed, scheme=scheme)
    assert not cold.warm
    _assert_partition_invariants(cold, k, weight_of, edge_weights)

    # warm start from the cold result with some vertices moved and some
    # forgotten (new since the previous run)
    previous = {}
    for v, p in cold.assignment.items():
        roll = rnd.random()
        if roll < 0.2:
            continue
        previous[v] = rnd.randrange(k) if roll < 0.4 else p
    warm = part_graph(graph, k, seed=seed, scheme=scheme,
                      warm_start=previous)
    _assert_partition_invariants(warm, k, weight_of, edge_weights)
