"""Tests for 2PC sharded execution and throughput accounting."""

import pytest

from repro.graph.builder import Interaction
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig
from repro.sharding.throughput import LatencyStats


CFG = ShardedExecutionConfig(
    service_time=1.0, prepare_time=1.0, commit_time=0.5, network_rtt=2.0
)


def tx_stream(pairs):
    return [
        Interaction(timestamp=float(i), src=s, dst=d, tx_id=i)
        for i, (s, d) in enumerate(pairs)
    ]


class TestShardSets:
    def test_shard_set_sorted_distinct(self):
        ex = ShardedExecution(4, {1: 3, 2: 0, 3: 3}, CFG)
        assert ex.shard_set([1, 2, 3]) == (0, 3)

    def test_unassigned_ignored(self):
        ex = ShardedExecution(4, {1: 1}, CFG)
        assert ex.shard_set([1, 99]) == (1,)


class TestSingleShardTx:
    def test_cost_is_one_service(self):
        ex = ShardedExecution(2, {1: 0, 2: 0}, CFG)
        ex.submit_transaction(0, (0,))
        ex.sim.run()
        assert ex.completed == 1
        assert ex.latencies == [1.0]
        assert ex.single_shard == 1
        assert ex.multi_shard == 0


class TestMultiShardTx:
    def test_2pc_latency(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        ex.submit_transaction(0, (0, 1))
        ex.sim.run()
        # prepare (1.0, parallel) + rtt (2.0) + commit (0.5) = 3.5
        assert ex.latencies == [pytest.approx(3.5)]
        assert ex.multi_shard == 1

    def test_2pc_occupies_both_shards(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        ex.submit_transaction(0, (0, 1))
        ex.sim.run()
        for shard in ex.shards:
            assert shard.busy_time == pytest.approx(1.5)  # prepare + commit

    def test_multi_shard_queues_behind_local_work(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        # keep shard 1 busy for 10s
        ex.shards[1].submit(10.0, lambda: None)
        ex.submit_transaction(0, (0, 1))
        ex.sim.run()
        # prepare on shard 1 starts at 10 -> done 11; rtt -> 13; commit 13.5
        assert ex.latencies == [pytest.approx(13.5)]

    def test_empty_shard_set_ignored(self):
        ex = ShardedExecution(2, {}, CFG)
        ex.submit_transaction(0, ())
        ex.sim.run()
        assert ex.completed == 0


class TestReplay:
    def test_replay_counts_transactions(self):
        ex = ShardedExecution(2, {1: 0, 2: 1, 3: 0}, CFG)
        report = ex.replay(tx_stream([(1, 3), (1, 2), (2, 2)]), arrival_rate=100.0)
        assert report.completed == 3
        assert report.single_shard == 2  # (1,3) same shard, (2,2) single
        assert report.multi_shard == 1

    def test_report_ratios(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        report = ex.replay(tx_stream([(1, 2), (1, 1)]), arrival_rate=100.0)
        assert report.multi_shard_ratio == pytest.approx(0.5)
        assert report.throughput > 0
        assert 0 < report.mean_utilization <= 1.0

    def test_time_scale_replay(self):
        ex = ShardedExecution(2, {1: 0, 2: 0}, CFG)
        stream = tx_stream([(1, 2), (1, 2)])
        report = ex.replay(stream, time_scale=10.0)
        # arrivals at 0 and 10; each takes 1s
        assert report.elapsed == pytest.approx(11.0)

    def test_balanced_assignment_spreads_utilization(self):
        stream = tx_stream([(i % 4, i % 4) for i in range(40)])
        balanced = ShardedExecution(4, {0: 0, 1: 1, 2: 2, 3: 3}, CFG)
        rep = balanced.replay(stream, arrival_rate=100.0)
        assert rep.utilization_imbalance < 1.2

    def test_skewed_assignment_detected(self):
        stream = tx_stream([(1, 1) for _ in range(40)])
        skewed = ShardedExecution(4, {1: 2}, CFG)
        rep = skewed.replay(stream, arrival_rate=100.0)
        assert rep.utilization_imbalance == pytest.approx(4.0)


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_percentiles(self):
        stats = LatencyStats.from_samples(list(range(1, 101)))
        assert stats.median == pytest.approx(50, abs=1)
        assert stats.p99 == pytest.approx(99, abs=1)
        assert stats.maximum == 100
        assert stats.mean == pytest.approx(50.5)
