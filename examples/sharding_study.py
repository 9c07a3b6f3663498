#!/usr/bin/env python
"""Would sharding actually help?  Throughput under each partitioning.

The paper's central warning (§I): "if the application state is poorly
partitioned, overall system performance will most likely decrease,
instead of increase, due to the overhead of multi-shard requests."

This example measures it with the sharded-execution simulator: the same
transaction stream runs on k = 4 shards under the assignment each
method produced, with multi-shard transactions paying a two-phase
commit across their shards.  A single-shard run is the baseline.

Run:  python examples/sharding_study.py
"""

from repro import (
    WorkloadConfig,
    generate_history,
    make_method,
    replay_method,
)
from repro.graph.snapshot import HOUR
from repro.sharding import ShardedExecution, ShardedExecutionConfig

K = 4


def main() -> None:
    print("generating history...")
    history = generate_history(WorkloadConfig.small(seed=3))
    log = history.builder.log
    lo, hi = max(0, len(log) - 15_000), len(log)  # the busy tail of the history
    cfg = ShardedExecutionConfig()

    # baseline: one shard executes everything locally
    everything_local = {v: 0 for v in history.graph.vertices()}
    base = ShardedExecution(1, everything_local, cfg).replay_columnar(
        log, lo, hi, arrival_rate=3.0 / cfg.service_time
    )
    print(f"\n{'method':10s} {'tx/s':>8s} {'speedup':>8s} {'multi-shard':>12s} "
          f"{'p99 (ms)':>9s} {'util-imbal':>10s}")
    print(f"{'1-shard':10s} {base.throughput:8.0f} {'1.00x':>8s} {0.0:12.2f} "
          f"{base.latency.p99 * 1000:9.1f} {base.utilization_imbalance:10.2f}")

    rate = 3.0 * K / cfg.service_time
    for name in ("hash", "kl", "metis", "p-metis", "tr-metis"):
        method = make_method(name, k=K, seed=1)
        replay = replay_method(history.builder.log, method, metric_window=24 * HOUR)
        ex = ShardedExecution(K, replay.assignment.as_dict(), cfg)
        rep = ex.replay_columnar(log, lo, hi, arrival_rate=rate)
        speedup = rep.throughput / base.throughput
        print(f"{name:10s} {rep.throughput:8.0f} {speedup:7.2f}x "
              f"{rep.multi_shard_ratio:12.2f} {rep.latency.p99 * 1000:9.1f} "
              f"{rep.utilization_imbalance:10.2f}")

    print(
        f"\nExpected shape: with {K} shards the ideal speedup is {K}.00x; the\n"
        "measured speedups fall far short of it, tracking each method's\n"
        "multi-shard ratio and load imbalance — the paper's pitfall."
    )


if __name__ == "__main__":
    main()
