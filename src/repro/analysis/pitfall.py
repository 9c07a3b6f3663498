"""EXT-PITFALL — throughput versus partition quality (extension).

The paper *argues* (§I) that bad partitioning makes a sharded system
slower than an unsharded one; this experiment measures it.  The same
transaction stream is executed by the sharded DES under each method's
final assignment (plus a random-assignment strawman and the k = 1
baseline) at saturating offered load, so achieved throughput reflects
each partitioning's multi-shard overhead and load imbalance.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.render import ascii_table
from repro.analysis.runner import ExperimentRunner
from repro.core.registry import PAPER_ORDER
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig


@dataclasses.dataclass(frozen=True)
class PitfallRow:
    method: str
    k: int
    throughput: float
    speedup_vs_single: float
    multi_shard_ratio: float
    p99_latency: float
    utilization_imbalance: float


def compute_pitfall(
    runner: ExperimentRunner,
    k: int = 8,
    methods: Tuple[str, ...] = tuple(PAPER_ORDER),
    seed: int = 1,
    config: Optional[ShardedExecutionConfig] = None,
    max_interactions: int = 20_000,
) -> List[PitfallRow]:
    """Throughput table for each method's final assignment at shard
    count ``k``, normalised to the single-shard baseline."""
    cfg = config or ShardedExecutionConfig()
    log = runner.log
    n = len(log)
    lo = max(0, n - max_interactions)

    # offered load: saturate the system so completed/elapsed = capacity
    rate = 3.0 * k / cfg.service_time

    # all real method assignments come from one declarative grid run
    # ("random" is this experiment's strawman, not a registry method)
    rs = runner.results_for([m for m in methods if m != "random"], (k,), seed=seed)

    # k = 1 baseline: everything is local
    single = ShardedExecution(1, _constant_assignment(runner, 0), cfg)
    base = single.replay_columnar(
        log, lo, n, arrival_rate=3.0 / cfg.service_time, strict=False)

    rows: List[PitfallRow] = [
        PitfallRow(
            method="single-shard",
            k=1,
            throughput=base.throughput,
            speedup_vs_single=1.0,
            multi_shard_ratio=0.0,
            p99_latency=base.latency.p99,
            utilization_imbalance=base.utilization_imbalance,
        )
    ]

    for method in methods + ("random",):
        if method == "random":
            rng = random.Random(seed)
            assignment = {
                v: rng.randrange(k) for v in _vertex_universe(runner)
            }
        else:
            assignment = dict(rs.get(method, k, seed).assignment)
        ex = ShardedExecution(k, assignment, cfg)
        rep = ex.replay_columnar(log, lo, n, arrival_rate=rate, strict=False)
        rows.append(
            PitfallRow(
                method=method,
                k=k,
                throughput=rep.throughput,
                speedup_vs_single=rep.throughput / base.throughput if base.throughput else 0.0,
                multi_shard_ratio=rep.multi_shard_ratio,
                p99_latency=rep.latency.p99,
                utilization_imbalance=rep.utilization_imbalance,
            )
        )
    return rows


def _vertex_universe(runner: ExperimentRunner) -> List[int]:
    """Every vertex id of the replayed history, from the log's interned
    vertex table: first-appearance order, the order the cumulative
    graph inserts them in, so seeded random assignments stay
    reproducible."""
    return list(runner.log.vertex_ids())


def _constant_assignment(runner: ExperimentRunner, shard: int) -> Dict[int, int]:
    return {v: shard for v in _vertex_universe(runner)}


def render_pitfall(rows: List[PitfallRow]) -> str:
    table_rows = [
        (
            r.method,
            r.k,
            f"{r.throughput:.0f}",
            f"{r.speedup_vs_single:.2f}x",
            f"{r.multi_shard_ratio:.2f}",
            f"{r.p99_latency * 1000:.1f}ms",
            f"{r.utilization_imbalance:.2f}",
        )
        for r in rows
    ]
    return ascii_table(
        ["method", "k", "tx/s", "speedup", "multi-shard", "p99", "util imbalance"],
        table_rows,
        title="EXT-PITFALL — throughput under each method's partitioning",
    )
