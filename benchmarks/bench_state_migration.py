"""EXT-MIGRATE — 2PC versus state-migration cross-shard handling.

The paper (§I) names two solution classes for multi-shard requests:
(a) distributed execution (Spanner / S-SMR → our 2PC mode) and
(b) moving state to one shard (Dynamic S-SMR → our migrate mode).
This benchmark runs the same workload tail through both modes under
two assignments (hash = high edge-cut, metis = low edge-cut) and
reports throughput, latency and migration volume — showing *when* each
class wins and how partition quality changes the answer.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.render import ascii_table
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig

K = 4


@pytest.mark.benchmark(group="state-migration")
def test_2pc_vs_migrate(benchmark, runner, out_dir):
    log = runner.workload.builder.log
    lo, hi = max(0, len(log) - 8000), len(log)  # the workload tail
    state = runner.workload.state

    def run_all():
        out = {}
        for method in ("hash", "metis"):
            assignment = runner.replay(method, K, seed=1).assignment.as_dict()
            for mode in ("2pc", "migrate"):
                cfg = ShardedExecutionConfig(mode=mode)
                ex = ShardedExecution(K, assignment, cfg, state=state)
                rate = 3.0 * K / cfg.service_time
                out[(method, mode)] = ex.replay_columnar(
                    log, lo, hi, arrival_rate=rate)
        return out

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (method, mode, f"{rep.throughput:.0f}",
         f"{rep.latency.p99 * 1000:.1f}ms", rep.multi_shard,
         rep.migrations, f"{rep.migration_bytes / 1e6:.2f}MB")
        for (method, mode), rep in sorted(reports.items())
    ]
    write_artifact(
        out_dir, "state_migration.txt",
        ascii_table(
            ["assignment", "mode", "tx/s", "p99", "multi-shard txs",
             "migrations", "state moved"],
            rows, title=f"EXT-MIGRATE — cross-shard handling, k={K}",
        ),
    )

    # migrate mode reduces the *recurring* multi-shard population:
    # after hot vertices co-locate, fewer transactions span shards
    for method in ("hash", "metis"):
        assert (reports[(method, "migrate")].multi_shard
                < reports[(method, "2pc")].multi_shard)
        assert reports[(method, "migrate")].migrations > 0
    # a better starting partition needs less state motion
    assert (reports[("metis", "migrate")].migration_bytes
            < reports[("hash", "migrate")].migration_bytes)
