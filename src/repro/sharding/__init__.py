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

The EXT-PITFALL benchmark feeds the same transaction stream through
assignments produced by each partitioning method and reports achieved
throughput and latency — showing the edge-cut ↔ performance coupling.
"""

from repro.sharding.events import EventQueue, ScheduledEvent
from repro.sharding.simulator import Simulator
from repro.sharding.shard import Shard
from repro.sharding.coordinator import ShardedExecution, ShardedExecutionConfig
from repro.sharding.throughput import LatencyStats, ThroughputReport

__all__ = [
    "EventQueue",
    "ScheduledEvent",
    "Simulator",
    "Shard",
    "ShardedExecution",
    "ShardedExecutionConfig",
    "LatencyStats",
    "ThroughputReport",
]
