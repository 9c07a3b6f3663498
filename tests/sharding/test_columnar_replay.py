"""The columnar engine against the closure oracle, and determinism.

``replay_columnar`` must be a bit-identical mirror of the closure
engine kept in ``tests.sharding.closure_engine`` — same event order,
same float arithmetic order — so these tests compare full
``ThroughputReport`` values with ``==``, never ``approx``.
"""

import random

import pytest

from repro.errors import InvalidPartitionError, UnassignedVertexError
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig
from tests.sharding.closure_engine import ClosureExecution


CFG_2PC = ShardedExecutionConfig(
    service_time=0.01, prepare_time=0.008, commit_time=0.004, network_rtt=0.05
)
CFG_MIGRATE = ShardedExecutionConfig(
    service_time=0.01, mode="migrate", migration_time_fixed=0.03
)

RAW_BASE = 1000  # raw vertex ids offset so raw id != dense index


def make_stream(n_tx=300, n_vertices=40, seed=7):
    """Deterministic multi-row transaction stream with raw vertex ids."""
    rng = random.Random(seed)
    out = []
    ts = 0.0
    for i in range(n_tx):
        ts += rng.random() * 0.05
        for _ in range(rng.randint(1, 4)):
            out.append(Interaction(
                timestamp=ts,
                src=RAW_BASE + rng.randrange(n_vertices),
                dst=RAW_BASE + rng.randrange(n_vertices),
                tx_id=i,
            ))
    return out


def full_assignment(k, n_vertices=40):
    return {RAW_BASE + v: v % k for v in range(n_vertices)}


STREAM = make_stream()
LOG = ColumnarLog.from_interactions(STREAM)


class TestDriverEquivalence:
    @pytest.mark.parametrize("cfg", [CFG_2PC, CFG_MIGRATE], ids=["2pc", "migrate"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_rate_mode_bit_identical(self, cfg, k):
        asg = full_assignment(k)
        boxed = ClosureExecution(k, asg, cfg).replay(STREAM, arrival_rate=120.0)
        cols = ShardedExecution(k, asg, cfg).replay_columnar(
            LOG, arrival_rate=120.0
        )
        assert boxed == cols

    @pytest.mark.parametrize("cfg", [CFG_2PC, CFG_MIGRATE], ids=["2pc", "migrate"])
    def test_time_scale_mode_bit_identical(self, cfg):
        asg = full_assignment(2)
        boxed = ClosureExecution(2, asg, cfg).replay(STREAM, time_scale=0.5)
        cols = ShardedExecution(2, asg, cfg).replay_columnar(LOG, time_scale=0.5)
        assert boxed == cols

    def test_default_arrival_rate_matches(self):
        asg = full_assignment(3)
        boxed = ClosureExecution(3, asg, CFG_2PC).replay(STREAM)
        cols = ShardedExecution(3, asg, CFG_2PC).replay_columnar(LOG)
        assert boxed == cols

    @pytest.mark.parametrize("lo,hi", [(0, len(STREAM)), (10, 137), (57, 58), (5, 5)])
    def test_row_slices_match_boxed_slices(self, lo, hi):
        asg = full_assignment(2)
        rows = LOG.to_interactions()[lo:hi]
        boxed = ClosureExecution(2, asg, CFG_2PC).replay(rows, arrival_rate=150.0)
        cols = ShardedExecution(2, asg, CFG_2PC).replay_columnar(
            LOG, lo, hi, arrival_rate=150.0
        )
        assert boxed == cols

    def test_migrate_live_assignment_matches(self):
        asg = full_assignment(2)
        ex_boxed = ClosureExecution(2, asg, CFG_MIGRATE)
        ex_cols = ShardedExecution(2, asg, CFG_MIGRATE)
        ex_boxed.replay(STREAM, arrival_rate=120.0)
        ex_cols.replay_columnar(LOG, arrival_rate=120.0)
        assert ex_boxed.assignment == ex_cols.assignment
        assert asg == full_assignment(2)  # the input mapping stays untouched

    def test_empty_log(self):
        boxed = ClosureExecution(2, {}, CFG_2PC).replay([])
        cols = ShardedExecution(2, {}, CFG_2PC).replay_columnar(
            ColumnarLog(), strict=False
        )
        assert boxed == cols
        assert cols.completed == 0
        assert cols.throughput == 0.0


class TestRepeatRunDeterminism:
    @pytest.mark.parametrize("cfg", [CFG_2PC, CFG_MIGRATE], ids=["2pc", "migrate"])
    def test_boxed_repeat_runs_bit_identical(self, cfg):
        asg = full_assignment(3)
        runs = [
            ClosureExecution(3, asg, cfg).replay(STREAM, arrival_rate=200.0)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cfg", [CFG_2PC, CFG_MIGRATE], ids=["2pc", "migrate"])
    def test_columnar_repeat_runs_bit_identical(self, cfg):
        asg = full_assignment(3)
        runs = [
            ShardedExecution(3, asg, cfg).replay_columnar(LOG, arrival_rate=200.0)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_repeat_calls_on_one_instance_are_equal(self):
        ex = ShardedExecution(3, full_assignment(3), CFG_2PC)
        first = ex.replay_columnar(LOG, arrival_rate=200.0)
        assert ex.replay_columnar(LOG, arrival_rate=200.0) == first


class TestWarmupEdges:
    def _cfg(self, fraction):
        return ShardedExecutionConfig(
            service_time=0.01, warmup_fraction=fraction
        )

    def test_all_samples_skipped(self):
        asg = full_assignment(2)
        rep = ShardedExecution(2, asg, self._cfg(1.0)).replay_columnar(
            LOG, arrival_rate=100.0
        )
        assert rep.completed > 0
        assert rep.latency.count == 0
        assert rep.latency.mean == 0.0

    def test_zero_samples_with_warmup(self):
        rep = ShardedExecution(2, {}, self._cfg(0.5)).replay_columnar(
            ColumnarLog(), strict=False
        )
        assert rep.latency.count == 0

    def test_rounding_truncates_toward_zero(self):
        # 3 completions at warmup 0.5 -> int(1.5) == 1 skipped, 2 kept
        stream = make_stream(n_tx=3, n_vertices=4, seed=11)
        log = ColumnarLog.from_interactions(stream)
        asg = full_assignment(2, n_vertices=4)
        rep = ShardedExecution(2, asg, self._cfg(0.5)).replay_columnar(
            log, arrival_rate=10.0
        )
        assert rep.completed == 3
        assert rep.latency.count == 2

    def test_warmup_agrees_across_drivers(self):
        asg = full_assignment(2)
        boxed = ClosureExecution(2, asg, self._cfg(0.3)).replay(
            STREAM, arrival_rate=100.0
        )
        cols = ShardedExecution(2, asg, self._cfg(0.3)).replay_columnar(
            LOG, arrival_rate=100.0
        )
        assert boxed == cols


class TestStrictAndUnassigned:
    def _partial(self, k):
        asg = full_assignment(k)
        del asg[RAW_BASE + 0]
        del asg[RAW_BASE + 1]
        return asg

    def test_columnar_strict_by_default(self):
        with pytest.raises(UnassignedVertexError, match="100[01]"):
            ShardedExecution(2, self._partial(2), CFG_2PC).replay_columnar(
                LOG, arrival_rate=100.0
            )

    def test_error_names_the_vertex(self):
        try:
            ShardedExecution(2, self._partial(2), CFG_2PC).replay_columnar(LOG)
        except UnassignedVertexError as exc:
            assert exc.vertex in (RAW_BASE + 0, RAW_BASE + 1)
        else:
            pytest.fail("expected UnassignedVertexError")

    @pytest.mark.parametrize("cfg", [CFG_2PC, CFG_MIGRATE], ids=["2pc", "migrate"])
    def test_unassigned_counts_match_across_drivers(self, cfg):
        asg = self._partial(2)
        boxed = ClosureExecution(2, asg, cfg).replay(STREAM, arrival_rate=100.0)
        cols = ShardedExecution(2, asg, cfg).replay_columnar(
            LOG, arrival_rate=100.0, strict=False
        )
        assert boxed == cols
        assert cols.unassigned_endpoints > 0

    def test_list_path_counts_instead_of_dropping(self):
        rows = [Interaction(timestamp=0.0, src=1, dst=99, tx_id=0)]
        rep = ClosureExecution(2, {1: 0}, CFG_2PC).replay(rows, arrival_rate=10.0)
        assert rep.unassigned_endpoints == 1
        assert rep.completed == 1  # the assigned endpoint still executes
        assert ShardedExecution(2, {1: 0}, CFG_2PC).replay_columnar(
            ColumnarLog(rows), arrival_rate=10.0, strict=False) == rep

    def test_strict_list_path_raises(self):
        rows = [Interaction(timestamp=0.0, src=1, dst=99, tx_id=0)]
        ex = ShardedExecution(2, {1: 0}, CFG_2PC)
        with pytest.raises(UnassignedVertexError, match="99"):
            ex.replay_columnar(ColumnarLog(rows), arrival_rate=10.0)


class TestOutOfRangeShards:
    """A shard outside [0, k) is an invalid partition under either
    strictness, never an unassigned endpoint or a foreign index."""

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("shard", [2, -1, -2])
    def test_rejected_naming_vertex_shard_and_k(self, shard, strict):
        asg = full_assignment(2)
        asg[RAW_BASE + 7] = shard
        ex = ShardedExecution(2, asg, CFG_2PC)
        with pytest.raises(
            InvalidPartitionError,
            match=rf"vertex {RAW_BASE + 7} .* shard {shard}\b.* k=2",
        ):
            ex.replay_columnar(LOG, arrival_rate=100.0, strict=strict)


class TestValidation:
    def test_arrival_rate_zero_rejected(self):
        ex = ShardedExecution(2, full_assignment(2), CFG_2PC)
        with pytest.raises(ValueError, match="arrival_rate must be > 0, got 0"):
            ex.replay_columnar(LOG, arrival_rate=0)

    def test_arrival_rate_negative_rejected_columnar(self):
        ex = ShardedExecution(2, full_assignment(2), CFG_2PC)
        with pytest.raises(ValueError, match="arrival_rate must be > 0, got -5"):
            ex.replay_columnar(LOG, arrival_rate=-5)

    def test_negative_time_scale_rejected(self):
        ex = ShardedExecution(2, full_assignment(2), CFG_2PC)
        with pytest.raises(ValueError, match="time_scale must be >= 0, got -1"):
            ex.replay_columnar(LOG, time_scale=-1)

    def test_bad_row_window_rejected(self):
        ex = ShardedExecution(2, full_assignment(2), CFG_2PC)
        with pytest.raises(ValueError, match="invalid row window"):
            ex.replay_columnar(LOG, lo=10, hi=5)

    @pytest.mark.parametrize("kwargs,needle", [
        ({"service_time": 0.0}, "service_time must be > 0, got 0.0"),
        ({"prepare_time": -0.1}, "prepare_time must be >= 0, got -0.1"),
        ({"commit_time": -1}, "commit_time must be >= 0, got -1"),
        ({"network_rtt": -2.5}, "network_rtt must be >= 0, got -2.5"),
        ({"migration_time_fixed": -0.5}, "migration_time_fixed must be >= 0"),
        ({"migration_bandwidth": 0}, "migration_bandwidth must be > 0, got 0"),
        ({"warmup_fraction": 1.5}, r"warmup_fraction must be in \[0, 1\], got 1.5"),
        ({"warmup_fraction": -0.1}, r"warmup_fraction must be in \[0, 1\]"),
        ({"mode": "teleport"}, "unknown mode"),
    ])
    def test_config_validation_names_value(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            ShardedExecutionConfig(**kwargs)

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            ShardedExecution(0, {})
