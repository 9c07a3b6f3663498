"""Warm-started repartitioning: equivalence, properties, columnar CSR.

Covers the PR-2 contracts:

* ``part_graph(warm_start=None)`` is bit-identical to the plain call;
* warm-started results satisfy the same coverage / label-range /
  balance properties as cold ones;
* the ColumnarLog → CSR bridges agree with the legacy
  digraph → collapse → CSR pipeline;
* the coarsening ladder cache preserves the hierarchy prefix.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graph import generators as gen
from repro.graph.builder import Interaction, build_graph
from repro.graph.columnar import ColumnarLog
from repro.graph.undirected import collapse_to_undirected
from repro.kernels import StreamState
from repro.metis import ColumnarCSRBuilder, CSRGraph, LadderCache, part_graph
from repro.metis.coarsen import coarsen_warm


def make_log(n_vertices=120, n_rows=1500, seed=0, communities=2):
    """Random time-ordered interaction log with planted communities."""
    rng = random.Random(seed)
    its = []
    per = n_vertices // communities
    for i in range(n_rows):
        c = rng.randrange(communities)
        if rng.random() < 0.9:  # intra-community
            u = c * per + rng.randrange(per)
            v = c * per + rng.randrange(per)
        else:
            u = rng.randrange(n_vertices)
            v = rng.randrange(n_vertices)
        its.append(Interaction(float(i), u, v, tx_id=i))
    return ColumnarLog(its)


def csr_as_dicts(csr):
    """(edge-weight map, vertex-weight map) keyed by original ids."""
    ids = csr.orig_ids if csr.orig_ids is not None else list(range(csr.num_vertices))
    edges = {}
    for v in range(csr.num_vertices):
        for i in range(csr.xadj[v], csr.xadj[v + 1]):
            u = csr.adjncy[i]
            key = (min(ids[v], ids[u]), max(ids[v], ids[u]))
            edges[key] = csr.adjwgt[i]
    return edges, {ids[v]: csr.vwgt[v] for v in range(csr.num_vertices)}


class TestColumnarCSR:
    @pytest.mark.parametrize("weights", ["unit", "activity"])
    def test_matches_digraph_pipeline(self, weights):
        log = make_log()
        g = build_graph(log.to_interactions())
        und = collapse_to_undirected(g, unit_vertex_weights=(weights == "unit"))
        legacy = CSRGraph.from_undirected(und)
        direct = CSRGraph.from_columnar(log, vertex_weights=weights)
        assert csr_as_dicts(legacy) == csr_as_dicts(direct)

    def test_window_range_matches_build_graph(self):
        log = make_log()
        lo, hi = 400, 900
        window_graph = build_graph(log[lo:hi])
        und = collapse_to_undirected(window_graph, unit_vertex_weights=True)
        legacy = CSRGraph.from_undirected(und)
        direct = CSRGraph.from_columnar(log, start=lo, stop=hi)
        assert csr_as_dicts(legacy) == csr_as_dicts(direct)

    def test_self_loops_weight_but_no_edge(self):
        log = ColumnarLog([
            Interaction(0.0, 1, 1, tx_id=0),
            Interaction(1.0, 1, 2, tx_id=1),
        ])
        csr = CSRGraph.from_columnar(log, vertex_weights="activity")
        edges, vw = csr_as_dicts(csr)
        assert edges == {(1, 2): 1}
        assert vw == {1: 2, 2: 1}  # self-interaction counts its endpoint once

    def test_builder_incremental_equals_one_shot(self):
        log = make_log()
        builder = ColumnarCSRBuilder(log)
        builder.advance(300)
        builder.advance(1000)
        builder.advance()
        inc = builder.snapshot()
        full = CSRGraph.from_columnar(log)
        assert inc.xadj == full.xadj
        assert inc.adjncy == full.adjncy
        assert inc.adjwgt == full.adjwgt
        assert inc.vwgt == full.vwgt
        assert inc.orig_ids == full.orig_ids

    def test_builder_snapshots_are_prefix_stable(self):
        log = make_log()
        builder = ColumnarCSRBuilder(log)
        builder.advance(500)
        early = builder.snapshot()
        builder.advance()
        late = builder.snapshot()
        assert late.orig_ids[: early.num_vertices] == early.orig_ids

    def test_builder_rejects_rewind(self):
        log = make_log()
        builder = ColumnarCSRBuilder(log)
        builder.advance(500)
        with pytest.raises(ValueError, match="rewind"):
            builder.advance(100)

    def test_builder_rejects_overrun_without_partial_fold(self):
        """Regression: advancing past the log end must fail *before*
        mutating the accumulators, or a caught-and-retried advance
        would double-count the half-folded rows."""
        log = make_log()
        builder = ColumnarCSRBuilder(log)
        builder.advance(500)
        with pytest.raises(ValueError, match="beyond log length"):
            builder.advance(len(log) + 10)
        builder.advance()  # retry to the true end must not double-count
        assert builder.snapshot().adjwgt == CSRGraph.from_columnar(log).adjwgt

    def test_invalid_vertex_weights_names_value(self):
        from repro.errors import PartitionError

        log = make_log(n_rows=10)
        # same error type as part_graph's own vertex_weights validation
        with pytest.raises(PartitionError, match="bogus"):
            CSRGraph.from_columnar(log, vertex_weights="bogus")
        with pytest.raises(PartitionError, match="bogus"):
            ColumnarCSRBuilder(log).snapshot(vertex_weights="bogus")

    @given(
        pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                       min_size=1, max_size=60),
        cuts=st.lists(st.integers(1, 60), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_stream_state_merges_to_the_builder_snapshot(self, pairs, cuts):
        """Warm METIS could read the replay's stream state instead of
        the builder without changing a cell: after ``window_pass`` folds
        rows ``[0, hi)``, merging the state's distinct directed edges
        gives the builder's unit-weight snapshot of the same rows,
        adjacency order included (self-loops give no edge)."""
        log = ColumnarLog(
            Interaction(float(i), 7919 * u, 7919 * v, tx_id=i)
            for i, (u, v) in enumerate(pairs))
        kr = kernels.active()
        state = StreamState()
        lo = 0
        for hi in sorted({min(c, len(log)) for c in cuts} | {len(log)}):
            kr.window_pass(log.src_indices(), log.dst_indices(), log.tx_ids(),
                           lo, hi, state)
            lo = hi
            merged = CSRGraph.from_edges(
                state.num_vertices, zip(state.esrc, state.edst, state.ecount))
            builder = ColumnarCSRBuilder(log)
            builder.advance(hi)
            snap = builder.snapshot("unit")
            assert list(merged.xadj) == list(snap.xadj)
            assert list(merged.adjncy) == list(snap.adjncy)
            assert list(merged.adjwgt) == list(snap.adjwgt)
            assert list(merged.vwgt) == list(snap.vwgt)
            assert snap.orig_ids == list(log.vertex_ids()[: state.num_vertices])


class TestWarmPartGraph:
    def test_warm_none_bit_identical(self):
        g = gen.powerlaw_graph(300, 2, random.Random(1))
        plain = part_graph(g, 4, seed=9)
        explicit = part_graph(g, 4, seed=9, warm_start=None)
        assert plain.assignment == explicit.assignment
        assert plain.edge_cut == explicit.edge_cut
        assert plain.part_weights == explicit.part_weights
        assert not plain.warm and not explicit.warm

    def test_warm_covers_all_vertices_in_range(self):
        log = make_log()
        prev = part_graph(CSRGraph.from_columnar(log, 0, 1000), 4, seed=3)
        grown = CSRGraph.from_columnar(log)
        res = part_graph(grown, 4, seed=3, warm_start=prev.assignment)
        assert res.warm
        assert set(res.assignment) == set(grown.orig_ids)
        assert all(0 <= p < 4 for p in res.assignment.values())
        assert len(res.part_weights) == 4
        assert sum(res.part_weights) == grown.total_vertex_weight

    def test_warm_respects_balance(self):
        log = make_log(n_vertices=200, n_rows=3000)
        prev = part_graph(CSRGraph.from_columnar(log, 0, 2000), 4, seed=3)
        grown = CSRGraph.from_columnar(log)
        res = part_graph(grown, 4, seed=3, warm_start=prev.assignment)
        assert res.warm
        assert res.balance <= 1.30  # same bound the cold contract tests use

    def test_warm_quality_near_cold(self):
        log = make_log(n_vertices=200, n_rows=3000, communities=4)
        prev = part_graph(CSRGraph.from_columnar(log, 0, 2200), 4, seed=3)
        grown = CSRGraph.from_columnar(log)
        warm = part_graph(grown, 4, seed=3, warm_start=prev.assignment)
        cold = part_graph(grown, 4, seed=3)
        assert warm.warm
        assert warm.edge_cut <= 1.5 * cold.edge_cut

    def test_warm_inherits_labels(self):
        """Mild growth: the overwhelming majority of previously assigned
        vertices keep their shard — the whole point of warm starting
        (and the behaviour cold METIS's free relabeling lacks)."""
        log = make_log(n_vertices=200, n_rows=3000, communities=4)
        prev = part_graph(CSRGraph.from_columnar(log, 0, 2800), 4, seed=3)
        grown = CSRGraph.from_columnar(log)
        warm = part_graph(grown, 4, seed=3, warm_start=prev.assignment)
        assert warm.warm
        moved = sum(
            1 for v, p in prev.assignment.items() if warm.assignment[v] != p
        )
        assert moved <= 0.2 * len(prev.assignment)

    def test_warm_falls_back_cold_on_heavy_growth(self):
        log = make_log()
        grown = CSRGraph.from_columnar(log)
        tiny = {grown.orig_ids[0]: 1}  # covers ~nothing
        res = part_graph(grown, 4, seed=3, warm_start=tiny)
        cold = part_graph(grown, 4, seed=3)
        assert not res.warm
        assert res.assignment == cold.assignment  # fallback is the cold path
        assert res.edge_cut == cold.edge_cut

    def test_warm_ignores_out_of_range_labels(self):
        log = make_log()
        prev = part_graph(CSRGraph.from_columnar(log, 0, 1200), 4, seed=3)
        bad = {v: p + 100 for v, p in prev.assignment.items()}
        grown = CSRGraph.from_columnar(log)
        res = part_graph(grown, 4, seed=3, warm_start=bad)
        assert not res.warm  # nothing usable -> cold
        assert set(res.assignment) == set(grown.orig_ids)

    def test_warm_k1_zero_cut(self):
        log = make_log(n_rows=200)
        csr = CSRGraph.from_columnar(log)
        res = part_graph(csr, 1, seed=0, warm_start={csr.orig_ids[0]: 0})
        assert res.edge_cut == 0
        assert set(res.assignment.values()) == {0}
        assert len(res.part_weights) == 1

    def test_warm_deterministic(self):
        log = make_log()
        prev = part_graph(CSRGraph.from_columnar(log, 0, 1000), 4, seed=3)
        grown = CSRGraph.from_columnar(log)
        a = part_graph(grown, 4, seed=3, warm_start=prev.assignment)
        b = part_graph(grown, 4, seed=3, warm_start=prev.assignment)
        assert a.assignment == b.assignment
        assert a.edge_cut == b.edge_cut


class TestLadderCache:
    def test_cold_build_populates_cache(self):
        g = gen.powerlaw_graph(400, 3, random.Random(7))
        und = collapse_to_undirected(g)
        csr = CSRGraph.from_undirected(und)
        cache = LadderCache()
        levels = coarsen_warm(csr, random.Random(0), cache, coarsen_to=48)
        assert cache.num_vertices == csr.num_vertices
        assert len(cache.matchings) == len(levels) - 1
        assert len(cache.matchings[0]) == csr.num_vertices

    def test_extension_preserves_hierarchy_prefix(self):
        log = make_log(n_vertices=200, n_rows=3000)
        small = CSRGraph.from_columnar(log, 0, 2000)
        grown = CSRGraph.from_columnar(log)
        assert grown.num_vertices >= small.num_vertices

        cache = LadderCache()
        old_levels = coarsen_warm(small, random.Random(0), cache, coarsen_to=32)
        old_maps = [list(lv.fine_to_coarse) for lv in old_levels[1:]]
        old_depth = len(old_maps)

        levels = coarsen_warm(grown, random.Random(0), cache, coarsen_to=32)
        # the old fine-vertex prefix projects to the same coarse ids
        for rung in range(min(old_depth, len(levels) - 1)):
            new_map = levels[rung + 1].fine_to_coarse
            old_map = old_maps[rung]
            assert new_map[: len(old_map)] == old_map

    def test_part_graph_with_cache_valid_across_growth(self):
        log = make_log(n_vertices=200, n_rows=3000)
        cache = LadderCache()
        for stop in (1500, 2200, 3000):
            csr = CSRGraph.from_columnar(log, 0, stop)
            res = part_graph(csr, 4, seed=5, warm_cache=cache)
            assert set(res.assignment) == set(csr.orig_ids)
            assert all(0 <= p < 4 for p in res.assignment.values())
            assert res.balance <= 1.30
