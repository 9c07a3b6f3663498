"""Unit tests for the five partitioning methods' decision logic."""

import random

import pytest

from repro import kernels
from repro.core.assignment import ShardAssignment
from repro.core.base import ReplayContext
from repro.core.hashing import HashPartitioner
from repro.core.kl import KLPartitioner
from repro.core.metis_method import MetisPartitioner
from repro.core.registry import PAPER_ORDER, available_methods, make_method
from repro.core.rmetis import RMetisPartitioner
from repro.core.trmetis import TRMetisPartitioner
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import DAY, REPARTITION_PERIOD
from repro.kernels import StreamState


def make_ctx(
    method,
    interactions=(),
    now=20 * DAY,
    last_repartition=0.0,
    window_cut=0.0,
    window_balance=1.0,
    assignment=None,
):
    """Build a ReplayContext from a raw interaction list, over a
    ColumnarLog of it and its stream state as the replay engine would
    stream them."""
    log = ColumnarLog(interactions)
    stream = StreamState()
    kernels.active().window_pass(
        log.src_indices(), log.dst_indices(), log.tx_ids(), 0, len(log), stream)
    if assignment is None:
        assignment = ShardAssignment(method.k)
        for i, v in enumerate(sorted(log.vertex_ids())):
            assignment.assign(v, i % method.k)
    return ReplayContext(
        now=now,
        k=method.k,
        assignment=assignment,
        last_repartition_ts=last_repartition,
        window_dynamic_edge_cut=window_cut,
        window_dynamic_balance=window_balance,
        rng=method.rng,
        columnar_log=log,
        log_hi=len(log),
        log_window_start=0,
        log_period_start=0,
        stream=stream,
    )


def two_communities(n_each=8, cross=1):
    """Interactions forming two tight groups plus ``cross`` bridges."""
    out = []
    ts = 0.0
    tx = 0
    for rep in range(4):
        for i in range(n_each):
            a, b = i, (i + 1) % n_each
            out.append(Interaction(ts, a, b, tx_id=tx)); tx += 1
            out.append(Interaction(ts, 100 + a, 100 + b, tx_id=tx)); tx += 1
            ts += 1.0
    for i in range(cross):
        out.append(Interaction(ts, i, 100 + i, tx_id=tx)); tx += 1
    return out


class TestRegistry:
    def test_paper_order_methods_available(self):
        for name in PAPER_ORDER:
            method = make_method(name, 2, seed=1)
            assert method.k == 2

    def test_aliases(self):
        assert type(make_method("p-metis", 2)) is type(make_method("r-metis", 2))

    def test_case_insensitive(self):
        assert isinstance(make_method("HASH", 2), HashPartitioner)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            make_method("quantum", 2)

    def test_available_sorted(self):
        assert available_methods() == sorted(available_methods())

    def test_kwargs_forwarded(self):
        m = make_method("tr-metis", 2, cut_threshold=0.9)
        assert m.cut_threshold == 0.9

    def test_unknown_kwargs_rejected_naming_method_and_params(self):
        with pytest.raises(ValueError) as exc:
            make_method("tr-metis", 2, cut_treshold=0.9)  # typo'd name
        msg = str(exc.value)
        assert "tr-metis" in msg and "cut_treshold" in msg
        assert "cut_threshold" in msg and "accepted" in msg

    def test_method_params_introspection(self):
        from repro.core.registry import method_params

        assert "salt" in method_params("hash")
        assert "warm" in method_params("metis")
        # k and seed are experiment-level, never method parameters
        for name in PAPER_ORDER:
            params = method_params(name)
            assert "k" not in params and "seed" not in params

    def test_register_method_roundtrip(self):
        from repro.core.registry import _FACTORIES, register_method

        class Custom(HashPartitioner):
            name = "custom-hash"

        register_method("custom-hash", Custom)
        try:
            assert isinstance(make_method("custom-hash", 2, salt=1), Custom)
        finally:
            _FACTORIES.pop("custom-hash", None)

    def test_describe(self):
        assert "hash" in make_method("hash", 4, seed=3).describe()


class TestHash:
    def test_never_repartitions(self):
        m = HashPartitioner(2)
        ctx = make_ctx(m, two_communities(), now=100 * DAY)
        assert m.maybe_repartition(ctx) is None

    def test_placement_ignores_neighbors(self):
        m = HashPartitioner(4)
        a = ShardAssignment(4)
        s1 = m.place_vertex(42, [1, 2, 3], a)
        s2 = m.place_vertex(42, [9, 9, 9], a)
        assert s1 == s2

    def test_salt_changes_placement_pattern(self):
        a = HashPartitioner(8, salt=0)
        b = HashPartitioner(8, salt=1)
        asg = ShardAssignment(8)
        placements_a = [a.place_vertex(v, [], asg) for v in range(50)]
        placements_b = [b.place_vertex(v, [], asg) for v in range(50)]
        assert placements_a != placements_b

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestKL:
    def test_respects_period(self):
        m = KLPartitioner(2, period=REPARTITION_PERIOD)
        ctx = make_ctx(m, two_communities(), now=1 * DAY)
        assert m.maybe_repartition(ctx) is None

    def test_reduces_cut_on_bad_assignment(self):
        m = KLPartitioner(2, seed=1, rounds=6)
        inter = two_communities()
        from repro.graph.builder import build_graph

        graph = build_graph(inter)
        # worst-case start: alternate shards within each community
        assignment = ShardAssignment(2)
        for v in sorted(graph.vertices()):
            assignment.assign(v, v % 2)

        def cut(asg):
            return sum(
                1 for it in inter
                if asg.get(it.src) != asg.get(it.dst)
            )

        before = cut(assignment)
        ctx = make_ctx(m, inter, now=30 * DAY, assignment=assignment)
        proposal = m.maybe_repartition(ctx)
        assert proposal
        after_map = assignment.as_dict()
        after_map.update(proposal)

        class D(dict):
            pass

        assert cut(D(after_map)) < before

    def test_returns_none_when_no_gain(self):
        m = KLPartitioner(2, seed=1)
        # perfectly partitioned two communities: no positive-gain moves
        inter = two_communities(cross=0)
        from repro.graph.builder import build_graph

        graph = build_graph(inter)
        assignment = ShardAssignment(2)
        for v in graph.vertices():
            assignment.assign(v, 0 if v < 100 else 1)
        ctx = make_ctx(m, inter, now=30 * DAY, assignment=assignment)
        assert m.maybe_repartition(ctx) is None

    def test_empty_period_no_repartition(self):
        m = KLPartitioner(2)
        ctx = make_ctx(m, [], now=30 * DAY)
        assert m.maybe_repartition(ctx) is None


class TestMetisMethods:
    def test_metis_respects_period(self):
        m = MetisPartitioner(2)
        ctx = make_ctx(m, two_communities(), now=1 * DAY)
        assert m.maybe_repartition(ctx) is None

    def test_metis_covers_whole_graph(self):
        m = MetisPartitioner(2, seed=1)
        inter = two_communities()
        ctx = make_ctx(m, inter, now=30 * DAY)
        proposal = m.maybe_repartition(ctx)
        assert proposal is not None
        assert set(proposal) == set(ctx.graph.vertices())

    def test_metis_finds_communities(self):
        m = MetisPartitioner(2, seed=1)
        inter = two_communities(cross=1)
        ctx = make_ctx(m, inter, now=30 * DAY)
        proposal = m.maybe_repartition(ctx)
        left = {proposal[v] for v in proposal if v < 100}
        right = {proposal[v] for v in proposal if v >= 100}
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_rmetis_only_covers_period_vertices(self):
        m = RMetisPartitioner(2, seed=1)
        inter = two_communities()
        ctx = make_ctx(m, inter, now=30 * DAY)
        # pretend the cumulative graph is much bigger than the window
        ctx.assignment.assign(999, 0)
        proposal = m.maybe_repartition(ctx)
        assert proposal is not None
        assert 999 not in proposal

    def test_too_small_window_skipped(self):
        m = RMetisPartitioner(8, seed=1)
        inter = [Interaction(0.0, 1, 2, tx_id=0)]
        ctx = make_ctx(m, inter, now=30 * DAY)
        assert m.maybe_repartition(ctx) is None


class TestTRMetis:
    def test_not_triggered_below_thresholds(self):
        m = TRMetisPartitioner(2, cut_threshold=0.5, balance_threshold=0.5,
                               consecutive=1)
        ctx = make_ctx(m, two_communities(), now=30 * DAY,
                       window_cut=0.1, window_balance=1.1)
        assert m.maybe_repartition(ctx) is None

    def test_triggered_by_cut(self):
        m = TRMetisPartitioner(2, cut_threshold=0.3, consecutive=1,
                               cooldown=1 * DAY)
        ctx = make_ctx(m, two_communities(), now=30 * DAY,
                       window_cut=0.9, window_balance=1.0)
        assert m.maybe_repartition(ctx) is not None

    def test_triggered_by_balance(self):
        m = TRMetisPartitioner(2, balance_threshold=0.3, consecutive=1,
                               cooldown=1 * DAY)
        # normalized balance at k=2: (1.8-1)/(2-1) = 0.8 > 0.3
        ctx = make_ctx(m, two_communities(), now=30 * DAY,
                       window_cut=0.0, window_balance=1.8)
        assert m.maybe_repartition(ctx) is not None

    def test_cooldown_blocks(self):
        m = TRMetisPartitioner(2, cut_threshold=0.1, consecutive=1,
                               cooldown=10 * DAY)
        ctx = make_ctx(m, two_communities(), now=30 * DAY,
                       last_repartition=25 * DAY, window_cut=0.9)
        assert m.maybe_repartition(ctx) is None

    def test_consecutive_windows_required(self):
        m = TRMetisPartitioner(2, cut_threshold=0.3, consecutive=3,
                               cooldown=1 * DAY)
        inter = two_communities()
        for i in range(2):
            ctx = make_ctx(m, inter, now=(20 + i) * DAY, window_cut=0.9)
            assert m.maybe_repartition(ctx) is None
        ctx = make_ctx(m, inter, now=22 * DAY, window_cut=0.9)
        assert m.maybe_repartition(ctx) is not None

    def test_streak_resets_below_threshold(self):
        m = TRMetisPartitioner(2, cut_threshold=0.3, consecutive=2,
                               cooldown=1 * DAY)
        inter = two_communities()
        assert m.maybe_repartition(make_ctx(m, inter, now=20 * DAY, window_cut=0.9)) is None
        assert m.maybe_repartition(make_ctx(m, inter, now=21 * DAY, window_cut=0.1)) is None
        assert m.maybe_repartition(make_ctx(m, inter, now=22 * DAY, window_cut=0.9)) is None

    def test_max_interval_safety_net(self):
        m = TRMetisPartitioner(2, cut_threshold=0.99, balance_threshold=9.9,
                               consecutive=99, max_interval=5 * DAY,
                               cooldown=1 * DAY)
        ctx = make_ctx(m, two_communities(), now=30 * DAY,
                       last_repartition=0.0, window_cut=0.0)
        assert m.maybe_repartition(ctx) is not None
