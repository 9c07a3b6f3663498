"""Tests for 2PC sharded execution and throughput accounting."""

import pytest

from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig
from repro.sharding.throughput import LatencyStats


CFG = ShardedExecutionConfig(
    service_time=1.0, prepare_time=1.0, commit_time=0.5, network_rtt=2.0
)


def tx_log(pairs):
    """One single-row transaction per (src, dst) pair, one second apart."""
    return ColumnarLog([
        Interaction(timestamp=float(i), src=s, dst=d, tx_id=i)
        for i, (s, d) in enumerate(pairs)
    ])


def busy_shards(report):
    return [u > 0 for u in report.utilization]


class TestShardSets:
    def test_shard_set_sorted_distinct(self):
        log = ColumnarLog([
            Interaction(timestamp=0.0, src=1, dst=2, tx_id=0),
            Interaction(timestamp=0.0, src=2, dst=3, tx_id=0),
        ])
        ex = ShardedExecution(4, {1: 3, 2: 0, 3: 3}, CFG)
        rep = ex.replay_columnar(log)
        assert rep.multi_shard == 1  # shards (0, 3), each prepared once
        assert busy_shards(rep) == [True, False, False, True]
        assert rep.latency.maximum == pytest.approx(3.5)

    def test_unassigned_ignored(self):
        ex = ShardedExecution(4, {1: 1}, CFG)
        rep = ex.replay_columnar(tx_log([(1, 99)]), strict=False)
        assert rep.single_shard == 1
        assert rep.unassigned_endpoints == 1
        assert busy_shards(rep) == [False, True, False, False]


class TestSingleShardTx:
    def test_cost_is_one_service(self):
        ex = ShardedExecution(2, {1: 0, 2: 0}, CFG)
        rep = ex.replay_columnar(tx_log([(1, 2)]))
        assert rep.completed == 1
        assert rep.latency.count == 1
        assert rep.latency.maximum == 1.0
        assert rep.single_shard == 1
        assert rep.multi_shard == 0


class TestMultiShardTx:
    def test_2pc_latency(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        rep = ex.replay_columnar(tx_log([(1, 2)]))
        # prepare (1.0, parallel) + rtt (2.0) + commit (0.5) = 3.5
        assert rep.latency.maximum == pytest.approx(3.5)
        assert rep.multi_shard == 1

    def test_2pc_occupies_both_shards(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        rep = ex.replay_columnar(tx_log([(1, 2)]))
        busy = [u * rep.elapsed for u in rep.utilization]
        assert busy == pytest.approx([1.5, 1.5])  # prepare + commit

    def test_multi_shard_queues_behind_local_work(self):
        # ten local transactions keep shard 1 busy for 10s, then a
        # cross-shard one arrives at the same instant
        rows = [Interaction(timestamp=0.0, src=2, dst=2, tx_id=i) for i in range(10)]
        rows.append(Interaction(timestamp=0.0, src=1, dst=2, tx_id=10))
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        rep = ex.replay_columnar(ColumnarLog(rows), time_scale=1.0)
        # prepare on shard 1 starts at 10 -> done 11; rtt -> 13; commit 13.5
        assert rep.latency.maximum == pytest.approx(13.5)
        assert rep.elapsed == pytest.approx(13.5)

    def test_empty_shard_set_ignored(self):
        ex = ShardedExecution(2, {}, CFG)
        rep = ex.replay_columnar(tx_log([(1, 2)]), strict=False)
        assert rep.completed == 0
        assert rep.single_shard + rep.multi_shard == 0
        assert rep.unassigned_endpoints == 2


class TestReplay:
    def test_replay_counts_transactions(self):
        ex = ShardedExecution(2, {1: 0, 2: 1, 3: 0}, CFG)
        report = ex.replay_columnar(
            tx_log([(1, 3), (1, 2), (2, 2)]), arrival_rate=100.0)
        assert report.completed == 3
        assert report.single_shard == 2  # (1,3) same shard, (2,2) single
        assert report.multi_shard == 1

    def test_report_ratios(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, CFG)
        report = ex.replay_columnar(tx_log([(1, 2), (1, 1)]), arrival_rate=100.0)
        assert report.multi_shard_ratio == pytest.approx(0.5)
        assert report.throughput > 0
        assert 0 < report.mean_utilization <= 1.0

    def test_time_scale_replay(self):
        ex = ShardedExecution(2, {1: 0, 2: 0}, CFG)
        report = ex.replay_columnar(tx_log([(1, 2), (1, 2)]), time_scale=10.0)
        # arrivals at 0 and 10; each takes 1s
        assert report.elapsed == pytest.approx(11.0)

    def test_balanced_assignment_spreads_utilization(self):
        log = tx_log([(i % 4, i % 4) for i in range(40)])
        balanced = ShardedExecution(4, {0: 0, 1: 1, 2: 2, 3: 3}, CFG)
        rep = balanced.replay_columnar(log, arrival_rate=100.0)
        assert rep.utilization_imbalance < 1.2

    def test_skewed_assignment_detected(self):
        log = tx_log([(1, 1) for _ in range(40)])
        skewed = ShardedExecution(4, {1: 2}, CFG)
        rep = skewed.replay_columnar(log, arrival_rate=100.0)
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
