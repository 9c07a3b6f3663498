"""Tests for initial bisection, FM refinement and the k-way pipeline."""

import random

import pytest

from repro.graph import generators as gen
from repro.graph.undirected import collapse_to_undirected
from repro.metis.graph import CSRGraph
from repro.metis.initial import greedy_graph_growing, spectral_bisection
from repro.metis.kway import kway_partition, recursive_bisection
from repro.metis.refine import fm_refine, kway_refine


def csr_of(digraph):
    return CSRGraph.from_undirected(collapse_to_undirected(digraph))


class TestInitial:
    def test_ggg_covers_and_balances(self):
        g = csr_of(gen.grid_graph(8, 8))
        part = greedy_graph_growing(g, g.total_vertex_weight / 2, random.Random(0))
        w0 = sum(g.vwgt[v] for v in range(g.num_vertices) if part[v] == 0)
        assert 0.35 * g.total_vertex_weight <= w0 <= 0.65 * g.total_vertex_weight

    def test_ggg_handles_disconnected(self):
        g = csr_of(gen.disjoint_cliques(2, 6, bridge_weight=0))
        part = greedy_graph_growing(g, g.total_vertex_weight / 2, random.Random(0))
        assert set(part) == {0, 1}

    def test_spectral_separates_communities(self):
        pytest.importorskip("scipy", exc_type=ImportError)
        dg = gen.weighted_communities(2, 10, 10, 1, random.Random(2))
        g = csr_of(dg)
        part = spectral_bisection(g, g.total_vertex_weight / 2)
        cut = g.cut_of(part)
        assert cut <= 4  # only the few inter-community bridges

    def test_spectral_tiny_graph(self):
        g = CSRGraph.from_edges(2, [(0, 1, 1)])
        assert spectral_bisection(g, 1.0) == [0, 0]


class TestFMRefine:
    def test_fm_improves_bad_partition(self):
        g = csr_of(gen.grid_graph(6, 6))
        rng = random.Random(0)
        # alternating partition: terrible cut
        part = [v % 2 for v in range(g.num_vertices)]
        before = g.cut_of(part)
        total = float(g.total_vertex_weight)
        after = fm_refine(g, part, (total / 2, total / 2), rng=rng)
        assert after < before
        assert after == g.cut_of(part)

    def test_fm_respects_balance(self):
        g = csr_of(gen.grid_graph(6, 6))
        part = [v % 2 for v in range(g.num_vertices)]
        total = float(g.total_vertex_weight)
        fm_refine(g, part, (total / 2, total / 2), ubfactor=1.05,
                  rng=random.Random(0))
        w = g.part_weights(part, 2)
        assert max(w) <= 1.06 * total / 2

    def test_fm_leaves_optimal_alone(self):
        # bridged cliques: the ring of bridges gives 2 directed bridge
        # edges that collapse to one undirected edge of weight 2
        g = csr_of(gen.disjoint_cliques(2, 5, bridge_weight=1))
        part = [0] * 5 + [1] * 5
        before = g.cut_of(part)
        total = float(g.total_vertex_weight)
        after = fm_refine(g, part, (total / 2, total / 2), rng=random.Random(0))
        assert after == before == 2


class TestKway:
    def test_recursive_bisection_labels(self):
        g = csr_of(gen.grid_graph(6, 6))
        total = float(g.total_vertex_weight)
        part = recursive_bisection(g, 4, [total / 4] * 4, random.Random(0))
        assert set(part) == {0, 1, 2, 3}

    def test_odd_k(self):
        g = csr_of(gen.grid_graph(9, 9))
        total = float(g.total_vertex_weight)
        part = recursive_bisection(g, 3, [total / 3] * 3, random.Random(0))
        counts = [part.count(p) for p in range(3)]
        assert min(counts) > 0.2 * (81 / 3)

    def test_k1(self):
        g = csr_of(gen.ring_graph(10))
        assert recursive_bisection(g, 1, [10.0], random.Random(0)) == [0] * 10

    def test_bad_targets_rejected(self):
        g = csr_of(gen.ring_graph(10))
        with pytest.raises(ValueError, match="targets"):
            recursive_bisection(g, 3, [1.0, 2.0], random.Random(0))

    def test_kway_partition_defaults(self):
        g = csr_of(gen.grid_graph(8, 8))
        part = kway_partition(g, 4, random.Random(0))
        w = g.part_weights(part, 4)
        assert max(w) <= 1.25 * 64 / 4  # refine may add a little slack

    def test_kway_refine_no_empty_parts(self):
        g = csr_of(gen.grid_graph(6, 6))
        part = kway_partition(g, 4, random.Random(1))
        targets = [g.total_vertex_weight / 4.0] * 4
        kway_refine(g, part, 4, targets)
        assert set(part) == {0, 1, 2, 3}

    def test_kway_refine_improves_or_keeps_cut(self):
        g = csr_of(gen.grid_graph(8, 8))
        rng = random.Random(2)
        part = [rng.randrange(4) for _ in range(g.num_vertices)]
        before = g.cut_of(part)
        targets = [g.total_vertex_weight / 4.0] * 4
        after = kway_refine(g, part, 4, targets, ubfactor=1.3)
        assert after <= before
        assert after == g.cut_of(part)
