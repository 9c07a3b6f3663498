"""Tests for the single-pass multi-method replay engine.

The load-bearing property: fanning N methods out of one shared log
stream must be *bit-identical* to N independent single-method replays,
while streaming the log (and folding its stream state) exactly once.
"""

import weakref

import pytest

from repro import kernels
from repro.core.base import PartitionMethod
from repro.core.multireplay import MultiReplayEngine, replay_methods
from repro.core.registry import make_method
from repro.core.replay import ReplayEngine
from repro.errors import InvalidPartitionError
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import HOUR
from repro.metis.graph import CSRGraph

ALL_METHODS = ["hash", "kl", "metis", "p-metis", "tr-metis", "fennel"]


def log_of(pairs, step=1.0, per_tx=1):
    out = []
    for i, (src, dst) in enumerate(pairs):
        out.append(
            Interaction(timestamp=i * step, src=src, dst=dst, tx_id=i // per_tx)
        )
    return out


class StaticMethod(PartitionMethod):  # reprolint: disable=RL008 -- test-local fixture method, never spec-reachable
    name = "static-test"

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return vertex % self.k

    def maybe_repartition(self, ctx):
        return None


class RepartitionAfter(PartitionMethod):  # reprolint: disable=RL008 -- test-local fixture method, never spec-reachable
    """Fires a fixed proposal at the first window closing after ``after``."""

    name = "after-test"

    def __init__(self, k, after, proposal, seed=0):
        super().__init__(k, seed)
        self.after = after
        self.proposal = proposal
        self.fired_at = None

    def place_vertex(self, vertex, tx_endpoints, assignment):
        return vertex % self.k

    def maybe_repartition(self, ctx):
        if self.fired_at is None and ctx.now > self.after:
            self.fired_at = ctx.now
            return self.proposal
        return None


def assert_results_identical(single, multi):
    assert single.method == multi.method
    assert single.k == multi.k
    assert single.series.points == multi.series.points
    assert single.events == multi.events
    assert single.assignment.as_dict() == multi.assignment.as_dict()
    assert single.assignment.counts == multi.assignment.counts
    assert single.assignment.weights == multi.assignment.weights


class TestEquivalence:
    def test_all_deterministic_methods_match_single_runs(self, tiny_workload):
        """MultiReplayEngine == N x ReplayEngine for the full method set."""
        log = tiny_workload.builder.log
        mw = 24 * HOUR
        singles = [
            ReplayEngine(log, make_method(n, 4, seed=1), metric_window=mw).run()
            for n in ALL_METHODS
        ]
        multi = MultiReplayEngine(
            log, [make_method(n, 4, seed=1) for n in ALL_METHODS], metric_window=mw
        ).run()
        assert len(multi) == len(ALL_METHODS)
        for s, m in zip(singles, multi):
            assert_results_identical(s, m)

    def test_scripted_repartition_matches_single_run(self):
        """Fan-out stays identical through a late (final-window) repartition."""
        log = log_of([(1, 2), (3, 4), (5, 6), (7, 8)], step=1.0)

        def methods():
            # one method repartitions in the final partial window, one
            # mid-replay, one never — all fanned out of the same pass
            return [
                RepartitionAfter(2, after=3.5, proposal={1: 0, 3: 0}),
                RepartitionAfter(2, after=1.5, proposal={5: 1}),
                StaticMethod(2),
            ]

        singles = [
            ReplayEngine(log, m, metric_window=2.0).run() for m in methods()
        ]
        multi = MultiReplayEngine(log, methods(), metric_window=2.0).run()
        for s, m in zip(singles, multi):
            assert_results_identical(s, m)
        late = multi[0]
        assert len(late.events) == 1
        assert late.events[0].ts == pytest.approx(4.0)  # final window close
        assert late.total_moves == 2

    def test_mixed_shard_counts_in_one_pass(self, tiny_workload):
        log = tiny_workload.builder.log
        mw = 24 * HOUR
        specs = [("hash", 2), ("hash", 8), ("tr-metis", 2), ("tr-metis", 8)]
        singles = [
            ReplayEngine(log, make_method(n, k, seed=1), metric_window=mw).run()
            for n, k in specs
        ]
        multi = MultiReplayEngine(
            log, [make_method(n, k, seed=1) for n, k in specs], metric_window=mw
        ).run()
        for s, m in zip(singles, multi):
            assert_results_identical(s, m)

    def test_columnar_log_input_matches_list_input(self, tiny_workload):
        log = tiny_workload.builder.log
        mw = 24 * HOUR
        from_list = MultiReplayEngine(
            log, [make_method("tr-metis", 4, seed=1)], metric_window=mw
        ).run()
        from_columnar = MultiReplayEngine(
            ColumnarLog(log), [make_method("tr-metis", 4, seed=1)], metric_window=mw
        ).run()
        for s, m in zip(from_list, from_columnar):
            assert_results_identical(s, m)

    def test_graph_is_derived_from_the_replayed_rows(self, tiny_workload):
        """Each result's graph is built on first access from the rows the
        pass replayed, and equals the builder's cumulative graph."""
        log = tiny_workload.builder.log
        results = MultiReplayEngine(
            log,
            [make_method(n, 4, seed=1) for n in ("hash", "fennel", "kl")],
            metric_window=24 * HOUR,
        ).run()
        live = tiny_workload.builder.graph
        for r in results:
            graph = r.graph
            assert graph is r.graph
            assert list(graph.vertices()) == list(live.vertices())
            assert list(graph.edges()) == list(live.edges())
            assert [graph.vertex_weight(v) for v in graph.vertices()] == \
                [live.vertex_weight(v) for v in live.vertices()]

    def test_weight_caches_consistent_with_graph(self, tiny_workload):
        for result in replay_methods(
            tiny_workload.builder.log,
            [make_method(n, 4, seed=1) for n in ("hash", "tr-metis")],
            metric_window=24 * HOUR,
        ):
            result.assignment.validate(result.graph)


class TestEngineContract:
    def test_empty_log(self):
        results = MultiReplayEngine([], [StaticMethod(2)], metric_window=10.0).run()
        assert len(results) == 1
        assert len(results[0].series) == 0
        assert results[0].total_moves == 0

    def test_no_methods(self):
        assert MultiReplayEngine(log_of([(1, 2)]), [], metric_window=10.0).run() == []

    def test_duplicate_method_instances_rejected(self):
        m = StaticMethod(2)
        with pytest.raises(ValueError):
            MultiReplayEngine(log_of([(1, 2)]), [m, m], metric_window=10.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            MultiReplayEngine([], [StaticMethod(2)], metric_window=0.0)

    def test_methods_see_identical_shared_inputs(self):
        """Window/period rows handed to methods match the log order."""
        seen = {}

        class Recorder(StaticMethod):
            def __init__(self, k, tag):
                super().__init__(k)
                self.tag = tag

            def maybe_repartition(self, ctx):
                log, hi = ctx.columnar_log, ctx.log_hi
                seen.setdefault(self.tag, []).append(
                    (log[ctx.log_window_start:hi], log[ctx.log_period_start:hi])
                )
                return None

        log = log_of([(1, 2), (3, 4), (5, 6)], step=1.0)
        MultiReplayEngine(
            log, [Recorder(2, "a"), Recorder(3, "b")], metric_window=2.0
        ).run()
        assert seen["a"] == seen["b"]
        windows, periods = zip(*seen["a"])
        assert [len(w) for w in windows] == [2, 1]
        assert periods[-1] == log  # period buffer accumulates the whole log


class TestOneShardMap:
    """Each method's assignment is the engine's only shard map: it is
    numbered like the log, and its ``shards`` array is the very object
    the accounting kernels read."""

    def test_kernels_read_the_assignment_shards(self, tiny_workload, monkeypatch):
        kr = kernels.active()
        received = {"account_window": [], "static_cut_count": []}

        def spy(name, shard_arg):
            original = getattr(kr, name)

            def wrapper(*args):
                received[name].append(args[shard_arg])
                return original(*args)
            monkeypatch.setattr(kr, name, wrapper)

        spy("account_window", 5)
        spy("static_cut_count", 2)
        engine = MultiReplayEngine(
            tiny_workload.builder.log,
            [make_method("hash", 4, seed=1), make_method("metis", 4, seed=1)],
            metric_window=24 * HOUR,
        )
        hashed, metis = engine.run()

        assert received["static_cut_count"]
        assert all(s is metis.assignment.shards
                   for s in received["static_cut_count"])
        accounted = received["account_window"]
        assert len(accounted) == 2 * len(metis.series)
        assert all(s is hashed.assignment.shards for s in accounted[0::2])
        assert all(s is metis.assignment.shards for s in accounted[1::2])

        ids = engine.log.vertex_ids()
        for result in (hashed, metis):
            assert tuple(result.assignment.ids[: len(ids)]) == ids

    def test_unplaced_first_seen_vertex_is_an_error(self):
        class Lazy(StaticMethod):
            def place_new_vertices(self, vertices, tx_endpoints, assignment):
                pass

        with pytest.raises(InvalidPartitionError, match="unplaced"):
            MultiReplayEngine(log_of([(1, 2)]), [Lazy(2)], metric_window=10.0).run()


class TestWindowGraphs:
    """Methods of one window read one graph object per graph, and the
    bisections computed on it are shared through its memo."""

    def test_metis_shard_counts_share_bisections(self, tiny_workload, coarsened):
        log = tiny_workload.builder.log
        together = MultiReplayEngine(
            log, [make_method("metis", k, seed=3) for k in (2, 4, 8)],
            metric_window=24 * HOUR,
        ).run()
        shared = len(coarsened)
        alone = [
            ReplayEngine(log, make_method("metis", k, seed=3),
                         metric_window=24 * HOUR).run()
            for k in (2, 4, 8)
        ]
        # four repartitions, each 1 + 3 + 7 bisections when replayed
        # alone; together k=4 reuses k=2's top bisection and k=8 reuses
        # it and k=4's left half: 1 + 2 + 5 per repartition
        assert [len(r.events) for r in together] == [4, 4, 4]
        assert (shared, len(coarsened) - shared) == (32, 44)
        for single, multi in zip(alone, together):
            assert_results_identical(single, multi)

    def test_kl_and_pmetis_share_the_period_aggregate(self, tiny_workload, monkeypatch):
        kr = kernels.active()
        calls = []
        graph_batch = kr.graph_batch

        def counting(*args):
            calls.append(args[-2:])
            return graph_batch(*args)

        monkeypatch.setattr(kr, "graph_batch", counting)

        def replay(*names):
            calls.clear()
            MultiReplayEngine(
                tiny_workload.builder.log,
                [make_method(name, 2, seed=1) for name in names],
                metric_window=24 * HOUR,
            ).run()
            return list(calls)

        apart = replay("kl") + replay("p-metis")
        together = replay("kl", "p-metis")
        # one call per row range and window: the ranges both methods
        # read in one window are aggregated once
        assert set(together) == set(apart)
        assert (len(together), len(apart)) == (4, 8)

    def test_window_graphs_die_with_their_window(self, tiny_workload):
        refs = []

        class Watcher(StaticMethod):
            def maybe_repartition(self, ctx):
                # every graph of an earlier window, with the halves
                # memoised on it, is gone before the next window's offer
                alive = {window for window, ref in refs if ref() is not None}
                assert not alive, f"graphs of windows {alive} outlived them"
                for graph in ctx.window_graphs.values():
                    if isinstance(graph, CSRGraph):
                        refs.append((ctx.now, weakref.ref(graph)))
                        refs.extend((ctx.now, weakref.ref(half))
                                    for half in graph.memo("halves").values())
                return None

        methods = [make_method(name, 4, seed=1) for name in ("metis", "p-metis", "kl")]
        MultiReplayEngine(
            tiny_workload.builder.log, [*methods, Watcher(4)],
            metric_window=24 * HOUR,
        ).run()
        # the stream CSR, the period CSR and KL's in each of the four
        # repartition windows, and the halves of the two 4-way partitions
        assert len({window for window, _ in refs}) == 4
        assert len(refs) == 4 * (3 + 2 * 2)
