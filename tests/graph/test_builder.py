"""Unit tests for the generated history's log holder and the graphs
built from a log."""

import pytest

from repro.graph.builder import (
    GraphBuilder,
    Interaction,
    build_graph,
    build_graph_columnar,
    group_by_transaction,
)
from repro.graph.digraph import VertexKind


def mk(ts, src, dst, tx=0, src_kind=VertexKind.ACCOUNT, dst_kind=VertexKind.ACCOUNT):
    return Interaction(
        timestamp=ts, src=src, dst=dst, tx_id=tx, src_kind=src_kind, dst_kind=dst_kind
    )


class TestBuilder:
    def test_add_creates_vertices_and_edge(self):
        b = GraphBuilder()
        b.add(mk(1.0, 1, 2))
        assert 1 in b.graph and 2 in b.graph
        assert b.graph.edge_weight(1, 2) == 1

    def test_edge_weight_is_interaction_count(self):
        b = GraphBuilder()
        for i in range(3):
            b.add(mk(float(i), 1, 2))
        assert b.graph.edge_weight(1, 2) == 3

    def test_vertex_weight_counts_participation(self):
        b = GraphBuilder()
        b.add(mk(1.0, 1, 2))
        b.add(mk(2.0, 1, 3))
        assert b.graph.vertex_weight(1) == 2
        assert b.graph.vertex_weight(2) == 1

    def test_self_interaction_counts_weight_once(self):
        b = GraphBuilder()
        b.add(mk(1.0, 5, 5))
        assert b.graph.vertex_weight(5) == 1

    def test_out_of_order_rejected(self):
        b = GraphBuilder()
        b.add(mk(5.0, 1, 2))
        with pytest.raises(ValueError, match="out-of-order"):
            b.add(mk(4.0, 2, 3))

    def test_equal_timestamps_allowed(self):
        b = GraphBuilder()
        b.add(mk(5.0, 1, 2))
        b.add(mk(5.0, 2, 3))
        assert len(b.log) == 2

    def test_kinds_recorded(self):
        b = GraphBuilder()
        b.add(mk(1.0, 1, 2, dst_kind=VertexKind.CONTRACT))
        assert b.graph.vertex_kind(2) is VertexKind.CONTRACT

    def test_first_seen_is_first_interaction_time(self):
        b = GraphBuilder()
        b.add(mk(1.0, 1, 2))
        b.add(mk(9.0, 2, 1))
        assert b.graph.first_seen(1) == 1.0
        assert b.graph.first_seen(2) == 1.0

    def test_add_many_returns_count(self):
        b = GraphBuilder()
        n = b.log.extend(mk(float(i), i, i + 1) for i in range(5))
        assert n == 5
        assert len(b.log) == 5
        assert b.graph.num_edges == 5

    def test_last_timestamp(self):
        b = GraphBuilder()
        assert b.log.last_timestamp == float("-inf")
        b.add(mk(3.0, 1, 2))
        assert b.log.last_timestamp == 3.0


class TestWindows:
    """Window queries on the builder's log and graphs of its row ranges."""

    @pytest.fixture()
    def builder(self):
        b = GraphBuilder()
        for i in range(10):
            b.add(mk(float(i), i, i + 1, tx=i))
        return b

    def test_interactions_between_half_open(self, builder):
        got = builder.log.window(2.0, 5.0)
        assert [it.timestamp for it in got] == [2.0, 3.0, 4.0]

    def test_interactions_between_empty(self, builder):
        assert builder.log.window(100.0, 200.0) == []

    def test_window_graph_only_window_edges(self, builder):
        log = builder.log
        g = build_graph_columnar(log, *log.window_bounds(2.0, 4.0))
        assert g.num_edges == 2
        assert set(g.vertices()) == {2, 3, 4}

    def test_graph_as_of(self, builder):
        log = builder.log
        g = build_graph_columnar(log, 0, log.index_at(3.0))
        assert g.num_edges == 3

    def test_window_graph_weights_restart(self, builder):
        # cumulative weight of vertex 5 is 2 (as src and dst); in the
        # window [5, 6) it participates once as src and not as dst
        log = builder.log
        g = build_graph_columnar(log, *log.window_bounds(5.0, 6.0))
        assert g.vertex_weight(5) == 1


class TestGrouping:
    def test_group_by_transaction_contiguous(self):
        stream = [mk(1.0, 1, 2, tx=7), mk(1.0, 2, 3, tx=7), mk(2.0, 4, 5, tx=8)]
        groups = list(group_by_transaction(stream))
        assert [g[0] for g in groups] == [7, 8]
        assert len(groups[0][1]) == 2
        assert len(groups[1][1]) == 1

    def test_group_by_transaction_empty(self):
        assert list(group_by_transaction([])) == []

    def test_group_single(self):
        groups = list(group_by_transaction([mk(1.0, 1, 2, tx=3)]))
        assert groups == [(3, [mk(1.0, 1, 2, tx=3)])]


def test_build_graph_standalone():
    g = build_graph([mk(1.0, 1, 2), mk(2.0, 2, 3), mk(3.0, 1, 2)])
    assert g.num_vertices == 3
    assert g.edge_weight(1, 2) == 2
