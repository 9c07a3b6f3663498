"""Tests for the state-migration execution mode (paper solution class b)."""

import pytest

from repro.ethereum.state import WorldState
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig


MIGRATE_CFG = ShardedExecutionConfig(
    service_time=1.0, prepare_time=1.0, commit_time=0.5, network_rtt=2.0,
    mode="migrate", migration_time_fixed=3.0,
)


def tx_log(groups):
    """groups: list of endpoint tuples, one transaction each."""
    out = []
    for i, endpoints in enumerate(groups):
        for j in range(len(endpoints) - 1):
            out.append(Interaction(
                timestamp=float(i), src=endpoints[j], dst=endpoints[j + 1], tx_id=i
            ))
    return ColumnarLog(out)


class TestMigrateMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ShardedExecution(2, {}, ShardedExecutionConfig(mode="teleport"))

    def test_single_shard_tx_unaffected(self):
        ex = ShardedExecution(2, {1: 0, 2: 0}, MIGRATE_CFG)
        rep = ex.replay_columnar(tx_log([(1, 2)]))
        assert rep.completed == 1
        assert rep.migrations == 0
        assert rep.latency.maximum == 1.0

    def test_minority_vertex_moves_to_majority(self):
        ex = ShardedExecution(2, {1: 0, 2: 0, 3: 1}, MIGRATE_CFG)
        rep = ex.replay_columnar(tx_log([(1, 2, 3)]))
        assert rep.migrations == 1
        assert ex.assignment[3] == 0  # sticky move

    def test_migration_latency(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, MIGRATE_CFG)
        rep = ex.replay_columnar(tx_log([(1, 2)]))
        # tie between shards -> target 0; vertex 2 moves: 3s at source
        # and 3s at target (parallel) then 1s local execution
        assert rep.latency.maximum == pytest.approx(4.0)

    def test_second_tx_benefits_from_move(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, MIGRATE_CFG)
        rep = ex.replay_columnar(tx_log([(1, 2), (1, 2)]), arrival_rate=0.01)
        assert rep.single_shard == 1  # the repeat pair is now co-located
        assert rep.multi_shard == 1

    def test_ping_pong_costs_repeatedly(self):
        # vertex 2 is pulled between shard-0 and shard-1 majorities; the
        # live assignment carries over from one replay to the next
        log = tx_log([(1, 1, 2), (2, 3, 4)])
        ex = ShardedExecution(2, {1: 0, 2: 1, 3: 1, 4: 1}, MIGRATE_CFG)
        first = ex.replay_columnar(log, 0, 2)  # tie 0 vs 1 -> target 0, 2 moves
        assert ex.assignment[2] == 0
        second = ex.replay_columnar(log, 2, 4)  # majority on 1 -> 2 moves back
        assert ex.assignment[2] == 1
        assert first.migrations + second.migrations == 2

    def test_state_sized_migration(self):
        state = WorldState()
        eoa = state.create_eoa()
        fat = state.create_contract((0,), initial_storage={i: 1 for i in range(50)})
        other = state.create_eoa()
        state.discard_journal()
        cfg = ShardedExecutionConfig(
            service_time=1.0, mode="migrate", migration_bandwidth=1000.0
        )
        # two endpoints on shard 0, fat contract on shard 1 -> fat moves
        ex = ShardedExecution(
            2, {eoa.address: 0, other.address: 0, fat.address: 1}, cfg, state=state
        )
        rep = ex.replay_columnar(tx_log([(eoa.address, other.address, fat.address)]))
        assert rep.migration_bytes == fat.state_bytes()
        # transfer time dominates: bytes/bandwidth on each side
        expected = fat.state_bytes() / 1000.0 + 1.0
        assert rep.latency.maximum == pytest.approx(expected)

    def test_original_assignment_not_mutated(self):
        original = {1: 0, 2: 1}
        ex = ShardedExecution(2, original, MIGRATE_CFG)
        ex.replay_columnar(tx_log([(1, 2)]))
        assert ex.assignment == {1: 0, 2: 0}
        assert original == {1: 0, 2: 1}

    def test_replay_in_migrate_mode(self):
        log = tx_log([(1, 2), (1, 2), (3, 3), (1, 2)])
        ex = ShardedExecution(2, {1: 0, 2: 1, 3: 1}, MIGRATE_CFG)
        report = ex.replay_columnar(log, arrival_rate=0.01)  # serial arrivals
        assert report.completed == 4
        assert report.migrations == 1          # only the first (1,2) moves
        assert report.multi_shard == 1
        assert report.single_shard == 3

    def test_report_carries_migration_stats(self):
        ex = ShardedExecution(2, {1: 0, 2: 1}, MIGRATE_CFG)
        rep = ex.replay_columnar(tx_log([(1, 2)]))
        assert rep.migrations == 1
        assert rep.multi_shard == 1
