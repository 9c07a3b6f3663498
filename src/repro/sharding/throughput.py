"""Throughput and latency accounting for the sharded executor."""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class LatencyStats:
    """Latency distribution summary (seconds)."""

    count: int
    mean: float
    median: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls(count=0, mean=0.0, median=0.0, p99=0.0, maximum=0.0)
        ordered = sorted(samples)
        n = len(ordered)

        def pct(q: float) -> float:
            idx = min(n - 1, max(0, int(round(q * (n - 1)))))
            return ordered[idx]

        return cls(
            count=n,
            mean=sum(ordered) / n,
            median=pct(0.5),
            p99=pct(0.99),
            maximum=ordered[-1],
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LatencyStats":
        return cls(
            count=int(payload["count"]),
            mean=float(payload["mean"]),
            median=float(payload["median"]),
            p99=float(payload["p99"]),
            maximum=float(payload["maximum"]),
        )


@dataclasses.dataclass(frozen=True)
class ThroughputReport:
    """Outcome of one sharded-execution run."""

    k: int
    completed: int
    single_shard: int
    multi_shard: int
    elapsed: float
    throughput: float           # committed transactions per second
    latency: LatencyStats
    utilization: Tuple[float, ...]
    migrations: int = 0         # vertices moved (migrate mode only)
    migration_bytes: int = 0    # serialized state moved (with a state)
    unassigned_endpoints: int = 0  # endpoint lookups dropped (no shard)

    @property
    def multi_shard_ratio(self) -> float:
        total = self.single_shard + self.multi_shard
        return self.multi_shard / total if total else 0.0

    @property
    def mean_utilization(self) -> float:
        return sum(self.utilization) / len(self.utilization) if self.utilization else 0.0

    @property
    def utilization_imbalance(self) -> float:
        """max/mean utilisation — the load-balance analogue of Eq. 2."""
        mean = self.mean_utilization
        return max(self.utilization) / mean if mean > 0 else 1.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload; inverse of :meth:`from_dict`."""
        return {
            "k": self.k,
            "completed": self.completed,
            "single_shard": self.single_shard,
            "multi_shard": self.multi_shard,
            "elapsed": self.elapsed,
            "throughput": self.throughput,
            "latency": self.latency.to_dict(),
            "utilization": list(self.utilization),
            "migrations": self.migrations,
            "migration_bytes": self.migration_bytes,
            "unassigned_endpoints": self.unassigned_endpoints,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ThroughputReport":
        return cls(
            k=int(payload["k"]),
            completed=int(payload["completed"]),
            single_shard=int(payload["single_shard"]),
            multi_shard=int(payload["multi_shard"]),
            elapsed=float(payload["elapsed"]),
            throughput=float(payload["throughput"]),
            latency=LatencyStats.from_dict(payload["latency"]),
            utilization=tuple(float(u) for u in payload["utilization"]),
            migrations=int(payload["migrations"]),
            migration_bytes=int(payload["migration_bytes"]),
            unassigned_endpoints=int(payload["unassigned_endpoints"]),
        )
