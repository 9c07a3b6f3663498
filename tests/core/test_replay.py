"""Tests for the replay engine on hand-crafted interaction logs."""

import pytest

from repro.core.base import PartitionMethod
from repro.core.hashing import HashPartitioner
from repro.core.multireplay import MultiReplayEngine
from repro.core.replay import ReplayEngine, replay_method
from repro.graph.builder import Interaction, build_graph
from repro.graph.snapshot import DAY, HOUR


def log_of(pairs, step=1.0, per_tx=1):
    """[(src, dst), ...] -> interaction log, one tx per ``per_tx`` pairs."""
    out = []
    for i, (src, dst) in enumerate(pairs):
        out.append(
            Interaction(timestamp=i * step, src=src, dst=dst, tx_id=i // per_tx)
        )
    return out


class StaticMethod(PartitionMethod):  # reprolint: disable=RL008 -- test-local fixture method, never spec-reachable
    """Places everything on shard (vertex mod k); never repartitions."""

    name = "static-test"

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return vertex % self.k

    def maybe_repartition(self, ctx):
        return None


class OneShotRepartition(PartitionMethod):  # reprolint: disable=RL008 -- test-local fixture method, never spec-reachable
    """Returns a fixed proposal exactly once, at the first opportunity."""

    name = "oneshot-test"

    def __init__(self, k, proposal, seed=0):
        super().__init__(k, seed)
        self.proposal = proposal
        self.fired = False

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return vertex % self.k

    def maybe_repartition(self, ctx):
        if self.fired:
            return None
        self.fired = True
        self.ctx_seen = ctx
        return self.proposal


class TestEngineBasics:
    def test_empty_log(self):
        result = replay_method([], StaticMethod(2))
        assert len(result.series) == 0
        assert result.total_moves == 0

    def test_all_vertices_assigned(self):
        log = log_of([(1, 2), (3, 4), (5, 6)])
        result = replay_method(log, StaticMethod(2), metric_window=10.0)
        for v in (1, 2, 3, 4, 5, 6):
            assert v in result.assignment

    def test_window_count(self):
        log = log_of([(1, 2)] * 10, step=1.0)
        result = replay_method(log, StaticMethod(2), metric_window=2.0)
        assert len(result.series) == 5

    def test_graph_matches_log(self):
        log = log_of([(1, 2), (1, 2), (2, 3)])
        result = replay_method(log, StaticMethod(2), metric_window=10.0)
        assert result.graph.edge_weight(1, 2) == 2
        assert result.graph.num_vertices == 3

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            ReplayEngine([], StaticMethod(2), metric_window=0.0)


class TestMetricValues:
    def test_dynamic_cut_exact(self):
        # shard = v % 2: (1,2) crosses, (2,4) doesn't, (1,3) doesn't
        log = log_of([(1, 2), (2, 4), (1, 3)])
        result = replay_method(log, StaticMethod(2), metric_window=100.0)
        point = result.series.points[0]
        assert point.dynamic_edge_cut == pytest.approx(1 / 3)

    def test_static_cut_counts_distinct_edges(self):
        # edge (1,2) appears twice but is one distinct edge
        log = log_of([(1, 2), (1, 2), (2, 4)])
        result = replay_method(log, StaticMethod(2), metric_window=100.0)
        point = result.series.points[0]
        assert point.static_edge_cut == pytest.approx(1 / 2)

    def test_self_loops_excluded(self):
        log = log_of([(1, 1), (1, 2)])
        result = replay_method(log, StaticMethod(2), metric_window=100.0)
        point = result.series.points[0]
        assert point.dynamic_edge_cut == 1.0  # only (1,2) counts, crossing

    def test_window_balance(self):
        # all load on the two endpoints' shards; v%2 puts 1,3 on shard 1
        # and 2 on shard 0: loads = shard1: (1)+(3)=2, shard0: (2)x2 = 2
        log = log_of([(1, 2), (3, 2)])
        result = replay_method(log, StaticMethod(2), metric_window=100.0)
        assert result.series.points[0].dynamic_balance == pytest.approx(1.0)

    def test_empty_window_defaults(self):
        log = [
            Interaction(0.0, 1, 2, tx_id=0),
            Interaction(50.0, 3, 4, tx_id=1),
        ]
        result = replay_method(log, StaticMethod(2), metric_window=10.0)
        quiet = result.series.points[1]
        assert quiet.interactions == 0
        assert quiet.dynamic_edge_cut == 0.0
        assert quiet.dynamic_balance == 1.0

    def test_interactions_counted_per_window(self):
        log = log_of([(1, 2)] * 7, step=1.0)
        result = replay_method(log, StaticMethod(2), metric_window=3.0)
        assert [p.interactions for p in result.series.points] == [3, 3, 1]


class TestRepartitioning:
    def test_moves_counted(self):
        log = log_of([(1, 2), (3, 4), (5, 6), (7, 8)], step=1.0)
        # move vertices 1 and 3 to shard 0 (both start on shard 1)
        method = OneShotRepartition(2, {1: 0, 3: 0})
        result = replay_method(log, method, metric_window=2.0)
        assert result.total_moves == 2
        assert result.assignment[1] == 0
        assert result.assignment[3] == 0

    def test_proposal_same_shard_not_a_move(self):
        log = log_of([(1, 2), (3, 4)])
        method = OneShotRepartition(2, {2: 0, 4: 0})  # already on 0
        result = replay_method(log, method, metric_window=100.0)
        assert result.total_moves == 0
        assert len(result.events) == 1
        assert result.events[0].moves == 0

    def test_unseen_vertex_in_proposal_is_placement(self):
        log = log_of([(1, 2)])
        method = OneShotRepartition(2, {99: 1})
        result = replay_method(log, method, metric_window=100.0)
        assert result.total_moves == 0
        assert result.assignment[99] == 1

    def test_static_cut_recomputed_after_repartition(self):
        # 1-2 and 1-3: with v%2, edges (1,2) cross, (1,3) not; after
        # moving 1 to shard 0, (1,2) uncut and (1,3) cut
        log = log_of([(1, 2), (1, 3), (4, 6)], step=1.0)
        method = OneShotRepartition(2, {1: 0})
        result = replay_method(log, method, metric_window=10.0)
        final = result.series.points[-1]
        assert final.static_edge_cut == pytest.approx(1 / 3)

    def test_period_buffer_resets(self):
        log = log_of([(1, 2), (3, 4), (5, 6), (7, 8)], step=1.0)

        class Recorder(StaticMethod):
            def __init__(self, k):
                super().__init__(k)
                self.period_sizes = []

            def maybe_repartition(self, ctx):
                self.period_sizes.append(ctx.log_hi - ctx.log_period_start)
                return {} if len(self.period_sizes) == 2 else None

        method = Recorder(2)
        replay_method(log, method, metric_window=1.0)
        # windows of 1 interaction each; buffer grows 1,2 then resets
        assert method.period_sizes == [1, 2, 1, 2]

    def test_event_metadata(self):
        log = log_of([(1, 2), (3, 4)], step=1.0)
        method = OneShotRepartition(2, {1: 0})
        result = replay_method(log, method, metric_window=1.0)
        event = result.events[0]
        assert event.moves == 1
        assert event.reassigned == 1
        assert event.reason == "oneshot-test"

    def test_cumulative_moves_in_series(self):
        log = log_of([(1, 2), (3, 4), (5, 6)], step=1.0)
        method = OneShotRepartition(2, {1: 0, 3: 0})
        result = replay_method(log, method, metric_window=2.0)
        moves = [p.cumulative_moves for p in result.series.points]
        # window [0,2) saw vertices 1..4, so both proposed moves count
        assert moves[0] == 2
        assert moves[-1] == 2

    def test_proposal_for_unseen_vertex_then_seen(self):
        # vertex 3 first appears *after* the repartition placed it
        log = log_of([(1, 2), (3, 4), (5, 6)], step=1.0)
        method = OneShotRepartition(2, {1: 0, 3: 0})
        result = replay_method(log, method, metric_window=1.0)
        # only vertex 1 was a real move; 3 was a pre-placement
        assert result.total_moves == 1
        assert result.assignment[3] == 0


class TestWindowEdgeCases:
    def test_final_partial_window_emitted(self):
        # ts 0..25 with 10s windows: [0,10), [10,20) and the partial
        # [20,30) — the end_ts = last + 1.0 contract keeps the tail
        log = log_of([(1, 2)] * 26, step=1.0)
        result = replay_method(log, StaticMethod(2), metric_window=10.0)
        assert len(result.series) == 3
        assert [p.interactions for p in result.series.points] == [10, 10, 6]

    def test_final_window_survives_float_rounding(self):
        # multi-year timestamps, where a naive end_ts = last + epsilon
        # would be absorbed by float rounding and drop the last window
        base = 6.0e7
        log = [Interaction(base + i, 1, 2, tx_id=i) for i in range(5)]
        result = replay_method(log, StaticMethod(2), metric_window=2.0)
        assert sum(p.interactions for p in result.series.points) == 5

    def test_repartition_in_final_partial_window(self):
        log = log_of([(1, 2), (3, 4), (5, 6)], step=1.0)

        class LastWindowOnly(StaticMethod):
            def maybe_repartition(self, ctx):
                return {1: 0} if ctx.now >= 3.0 else None

        # windows [0,2) and the partial [2,4); the proposal only fires
        # at the final window close (now = 4.0)
        result = replay_method(log, LastWindowOnly(2), metric_window=2.0)
        assert len(result.series) == 2
        assert len(result.events) == 1
        assert result.events[0].ts == pytest.approx(4.0)
        assert result.total_moves == 1
        assert result.assignment[1] == 0
        assert result.series.points[-1].cumulative_moves == 1


class TestContext:
    def test_context_contents(self):
        log = log_of([(1, 2), (3, 4)], step=1.0, per_tx=2)
        method = OneShotRepartition(2, {})
        replay_method(log, method, metric_window=10.0)
        ctx = method.ctx_seen
        assert ctx.k == 2
        assert ctx.log_hi - ctx.log_window_start == 2
        assert ctx.log_hi - ctx.log_period_start == 2
        assert ctx.columnar_log[ctx.log_window_start:ctx.log_hi] == log
        assert ctx.graph.num_vertices == 4
        assert ctx.period_graph.num_vertices == 4
        assert ctx.elapsed_since_repartition > 0

    def test_placement_sees_whole_transaction(self):
        """All endpoints of a transaction are offered to place_vertex."""
        seen = {}

        class Spy(StaticMethod):
            def place_vertex(self, vertex, tx_endpoints, assignment):
                seen[vertex] = list(tx_endpoints)
                return 0

        # one tx with two interactions: 1->2, 2->3
        log = [
            Interaction(0.0, 1, 2, tx_id=5),
            Interaction(0.0, 2, 3, tx_id=5),
        ]
        replay_method(log, Spy(2), metric_window=10.0)
        assert set(seen[1]) == {1, 2, 3}
        assert set(seen[3]) == {1, 2, 3}


class ContextKeeper(StaticMethod):  # reprolint: disable=RL008 -- test-local fixture method, never spec-reachable
    """Keeps every context it is offered, past its window."""

    name = "keeper-test"

    def __init__(self, k, seed=0):
        super().__init__(k, seed)
        self.contexts = []

    def maybe_repartition(self, ctx):
        self.contexts.append(ctx)
        return None


def _graph_tuple(graph):
    return (
        [(v, graph.vertex_weight(v)) for v in graph.vertices()],
        list(graph.edges()),
    )


class TestDerivedGraphs:
    def test_context_kept_past_its_window_reports_its_rows(self):
        """``ctx.graph`` is the graph of rows [0, log_hi), even when read
        after the replay has streamed further windows."""
        log = log_of([(1, 2), (2, 3), (1, 2), (4, 5), (5, 1)], step=1.0)
        method = ContextKeeper(2)
        replay_method(log, method, metric_window=2.0)
        his = [ctx.log_hi for ctx in method.contexts]
        assert his == [2, 4, 5]
        for ctx in method.contexts:
            assert _graph_tuple(ctx.graph) == \
                _graph_tuple(build_graph(log[:ctx.log_hi]))

    def test_result_graph_of_early_stop_covers_replayed_rows(self):
        log = log_of([(1, 2), (3, 4), (5, 6), (7, 8)], step=1.0)
        result = MultiReplayEngine(
            log, [StaticMethod(2)], metric_window=1.0, end_ts=2.0).run()[0]
        assert len(result.series) == 2
        assert _graph_tuple(result.graph) == _graph_tuple(build_graph(log[:2]))
        assert set(result.graph.vertices()) == {1, 2, 3, 4}


class TestHashReplayInvariants:
    def test_hash_never_moves(self, tiny_workload):
        result = replay_method(
            tiny_workload.builder.log, HashPartitioner(4), metric_window=12 * HOUR
        )
        assert result.total_moves == 0
        assert result.events == []

    def test_assignment_validates(self, tiny_workload):
        result = replay_method(
            tiny_workload.builder.log, HashPartitioner(4), metric_window=12 * HOUR
        )
        result.assignment.validate(result.graph)
        assert len(result.assignment) == result.graph.num_vertices
