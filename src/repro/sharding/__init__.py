"""Sharded-execution discrete-event simulator (the paper's "pitfall").

The paper's introduction argues — without measuring — that "if the
application state is poorly partitioned, overall system performance
will most likely decrease, instead of increase, due to the overhead of
multi-shard requests."  This package turns that claim into a measurable
experiment: shards are serial execution resources, single-shard
transactions cost one service slot, and multi-shard transactions run a
two-phase commit across every involved shard (prepare + vote round-trip
+ commit), exactly the "shards coordinate and execute the request in a
distributed fashion" class of solutions (Spanner / S-SMR) the paper
cites.  State migration after repartitionings occupies shards in
proportion to the bytes moved.

:meth:`ShardedExecution.replay_columnar` is the one execution engine:
it replays rows of a :class:`~repro.graph.columnar.ColumnarLog` and
returns a :class:`ThroughputReport`.  Experiment cells and the
EXT-PITFALL benchmark feed it the assignments each partitioning method
produced, showing the edge-cut ↔ performance coupling.
"""

from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig
from repro.sharding.throughput import LatencyStats, ThroughputReport

__all__ = [
    "ShardedExecution",
    "ShardedExecutionConfig",
    "LatencyStats",
    "ThroughputReport",
]
