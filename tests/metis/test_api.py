"""Tests for the part_graph entry point: quality, determinism, contracts."""

import random
import sys

import pytest

from repro.errors import PartitionError
from repro.graph import generators as gen
from repro.graph.undirected import collapse_to_undirected
from repro.metis import CSRGraph, part_graph


class TestQuality:
    """part_graph must recover known-good partitions — the property the
    paper's METIS usage depends on."""

    def test_ring_optimal(self):
        res = part_graph(gen.ring_graph(100), 2, seed=1)
        assert res.edge_cut == 2

    def test_grid_near_optimal(self):
        res = part_graph(gen.grid_graph(16, 16), 2, seed=1)
        assert res.edge_cut <= 1.5 * 16

    def test_planted_communities_recovered(self):
        rng = random.Random(4)
        g = gen.weighted_communities(4, 25, intra_weight=10, inter_weight=1, rng=rng)
        res = part_graph(g, 4, seed=2)
        planted = gen.planted_assignment(4, 25)
        # each community must land (almost) wholly in one shard
        from collections import Counter

        for c in range(4):
            shards = Counter(
                res.assignment[v] for v, comm in planted.items() if comm == c
            )
            majority = shards.most_common(1)[0][1]
            assert majority >= 23

    def test_disjoint_cliques_zero_cut(self):
        g = gen.disjoint_cliques(4, 10, bridge_weight=0)
        res = part_graph(g, 4, seed=0)
        assert res.edge_cut == 0

    def test_beats_random_on_powerlaw(self):
        rng = random.Random(7)
        g = gen.powerlaw_graph(400, 3, rng)
        res = part_graph(g, 4, seed=1)
        und = collapse_to_undirected(g)
        rng2 = random.Random(8)
        rand_assign = {v: rng2.randrange(4) for v in und.vertices()}
        rand_cut = sum(
            w for u, v, w in und.edges() if rand_assign[u] != rand_assign[v]
        )
        assert res.edge_cut < 0.8 * rand_cut

    def test_spectral_initial_works(self):
        g = gen.grid_graph(10, 10)
        res = part_graph(g, 2, seed=1, initial="spectral")
        assert res.edge_cut <= 2 * 10

    @pytest.mark.parametrize("k", [2, 4])
    def test_spectral_without_scipy_is_greedy(self, monkeypatch, k):
        # spectral bisection fails before it touches the RNG, so the
        # greedy fallback reproduces the greedy assignment exactly
        for name in ("scipy", "scipy.sparse", "scipy.sparse.linalg"):
            monkeypatch.setitem(sys.modules, name, None)
        g = gen.grid_graph(10, 10)
        spectral = part_graph(g, k, seed=1, initial="spectral")
        greedy = part_graph(g, k, seed=1, initial="greedy")
        assert spectral.assignment == greedy.assignment


class TestContracts:
    def test_partition_is_total_and_in_range(self):
        g = gen.powerlaw_graph(200, 2, random.Random(0))
        res = part_graph(g, 8, seed=3)
        assert set(res.assignment) == set(g.vertices())
        assert all(0 <= s < 8 for s in res.assignment.values())

    def test_balance_close_to_one(self):
        g = gen.grid_graph(12, 12)
        res = part_graph(g, 4, seed=1)
        assert res.balance <= 1.30

    def test_part_weights_sum(self):
        g = gen.ring_graph(50)
        res = part_graph(g, 2, seed=1)
        und = collapse_to_undirected(g)
        assert sum(res.part_weights) == und.total_vertex_weight

    def test_reported_cut_matches_assignment(self):
        g = gen.powerlaw_graph(150, 2, random.Random(2))
        res = part_graph(g, 4, seed=5)
        und = collapse_to_undirected(g)
        cut = sum(
            w for u, v, w in und.edges()
            if res.assignment[u] != res.assignment[v]
        )
        assert cut == res.edge_cut

    def test_determinism(self):
        g = gen.powerlaw_graph(300, 2, random.Random(1))
        a = part_graph(g, 4, seed=9)
        b = part_graph(g, 4, seed=9)
        assert a.assignment == b.assignment
        assert a.edge_cut == b.edge_cut

    def test_seed_matters(self):
        g = gen.powerlaw_graph(300, 2, random.Random(1))
        a = part_graph(g, 4, seed=1)
        b = part_graph(g, 4, seed=2)
        assert a.assignment != b.assignment

    def test_k1(self):
        g = gen.ring_graph(10)
        res = part_graph(g, 1, seed=0)
        assert res.edge_cut == 0
        assert set(res.assignment.values()) == {0}

    def test_k1_well_formed_result(self):
        """Regression: k=1 must return a complete zero-cut result with
        part_weights of length exactly 1."""
        g = gen.ring_graph(10)
        res = part_graph(g, 1, seed=0)
        assert len(res.part_weights) == 1
        und = collapse_to_undirected(g)
        assert res.part_weights == [und.total_vertex_weight]
        assert res.balance == 1.0

    def test_k_greater_than_n(self):
        g = gen.path_graph(3)
        res = part_graph(g, 8, seed=0)
        assert len(res.assignment) == 3

    def test_empty_parts_keep_part_weights_length_k(self):
        """Regression: with k > n some parts are necessarily empty —
        part_weights must still have length k, sum to the total vertex
        weight, and balance must reflect the overweight parts."""
        g = gen.path_graph(3)
        res = part_graph(g, 8, seed=0)
        assert len(res.part_weights) == 8
        und = collapse_to_undirected(g)
        assert sum(res.part_weights) == und.total_vertex_weight
        assert res.part_weights.count(0) >= 5  # at least 5 empty parts
        # true imbalance: max * k / total — must not be understated
        expected = max(res.part_weights) * 8 / sum(res.part_weights)
        assert res.balance == expected
        assert res.balance >= 8 / 3  # a nonempty part holds >= 1/3 of weight

    def test_empty_graph_part_weights_length_k(self):
        from repro.graph.digraph import WeightedDiGraph

        res = part_graph(WeightedDiGraph(), 4, seed=0)
        assert res.part_weights == [0, 0, 0, 0]
        assert res.balance == 1.0

    def test_part_weights_length_mismatch_rejected(self):
        from repro.metis import PartGraphResult

        with pytest.raises(PartitionError, match="length k=3"):
            PartGraphResult(assignment={}, k=3, edge_cut=0, part_weights=[0, 0])

    def test_empty_graph(self):
        from repro.graph.digraph import WeightedDiGraph

        res = part_graph(WeightedDiGraph(), 4, seed=0)
        assert res.assignment == {}
        assert res.edge_cut == 0

    def test_invalid_k(self):
        with pytest.raises(PartitionError):
            part_graph(gen.ring_graph(5), 0)

    def test_invalid_graph_type(self):
        with pytest.raises(PartitionError):
            part_graph("not a graph", 2)  # type: ignore[arg-type]

    def test_invalid_vertex_weights_mode(self):
        with pytest.raises(PartitionError):
            part_graph(gen.ring_graph(5), 2, vertex_weights="bogus")

    def test_invalid_vertex_weights_message_names_value(self):
        """Regression: the error must echo the rejected value (the
        original f-string had no placeholder)."""
        with pytest.raises(PartitionError, match="'bogus'"):
            part_graph(gen.ring_graph(5), 2, vertex_weights="bogus")

    def test_invalid_scheme_message_names_value(self):
        with pytest.raises(PartitionError, match="'zigzag'"):
            part_graph(gen.ring_graph(5), 2, scheme="zigzag")

    def test_csr_input_accepted(self):
        csr = CSRGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        res = part_graph(csr, 2, seed=0)
        assert set(res.assignment) == {0, 1, 2, 3}

    def test_unit_vs_activity_vertex_weights(self):
        """The paper's pitfall in miniature: with unit weights a hot
        community can land wholly in one shard; with activity weights
        the partitioner must split the load."""
        from repro.graph.builder import Interaction, build_graph

        stream = []
        ts = 0.0
        # 10 hot vertices interacting heavily + 10 cold hanging off them
        for i in range(200):
            stream.append(Interaction(ts + i, i % 10, (i + 1) % 10, tx_id=i))
        for i in range(10):
            stream.append(Interaction(300.0 + i, i, 10 + i, tx_id=900 + i))
        g = build_graph(stream)

        unit = part_graph(g, 2, seed=1, vertex_weights="unit")
        act = part_graph(g, 2, seed=1, vertex_weights="activity")

        def hot_split(assignment):
            shards = {assignment[v] for v in range(10)}
            return len(shards)

        # activity weighting must split the hot core; unit weighting is
        # free to cluster it (cut-minimal)
        assert hot_split(act.assignment) == 2
