"""Cross-shard transaction execution: two-phase commit or state moves.

A transaction touches the set of shards hosting its endpoint vertices.
Single-shard transactions always cost one ``service_time`` slot on
their shard.  Multi-shard transactions are handled per the paper's two
solution classes (§I):

* ``mode="2pc"`` (class (a): Spanner / S-SMR) — the coordinating shard
  drives two-phase commit: every involved shard executes a *prepare*
  job, votes travel one network RTT, then every shard executes a
  *commit* job.  Cost per shard ≈ 2 service slots plus the vote RTT.

* ``mode="migrate"`` (class (b): Dynamic S-SMR [5]) — the vertices on
  minority shards *move* to the shard hosting the most endpoints
  (source and destination each pay the transfer time, which scales
  with the vertex's serialized state when a world state is supplied),
  after which the transaction executes locally.  Moves are sticky: the
  live assignment is updated, so later transactions benefit — or pay
  again when access patterns ping-pong.

The driver replays an interaction log: each transaction arrives at its
(scaled) timestamp, its shard set is derived from a vertex → shard
assignment, and the report aggregates throughput and latency.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import UnassignedVertexError
from repro.graph.builder import Interaction, group_by_transaction
from repro.sharding.batch import run_columnar
from repro.sharding.shard import Shard
from repro.sharding.simulator import Simulator
from repro.sharding.throughput import LatencyStats, ThroughputReport


@dataclasses.dataclass(frozen=True)
class ShardedExecutionConfig:
    """Cost model of the sharded executor.

    Times are in simulated seconds; defaults approximate a permissioned
    deployment (1 ms execution, 5 ms inter-shard RTT).
    """

    service_time: float = 0.001      # single-shard execution slot
    prepare_time: float = 0.001      # per-shard prepare work (2PC phase 1)
    commit_time: float = 0.0005      # per-shard commit work (2PC phase 2)
    network_rtt: float = 0.005       # vote round-trip between shards
    warmup_fraction: float = 0.0     # ignore the first X of completions
    mode: str = "2pc"                # "2pc" or "migrate"
    migration_bandwidth: float = 50e6   # bytes/sec when a state is given
    migration_time_fixed: float = 0.002  # per-vertex move time otherwise

    def __post_init__(self) -> None:
        if self.mode not in ("2pc", "migrate"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if not self.service_time > 0:
            raise ValueError(f"service_time must be > 0, got {self.service_time}")
        for name in ("prepare_time", "commit_time", "network_rtt",
                     "migration_time_fixed"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not self.migration_bandwidth > 0:
            raise ValueError(
                f"migration_bandwidth must be > 0, got {self.migration_bandwidth}"
            )
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1], got {self.warmup_fraction}"
            )


@dataclasses.dataclass
class _TxState:
    tx_id: int
    shards: Tuple[int, ...]
    arrived_at: float
    pending: int = 0
    phase: str = "prepare"


class ShardedExecution:
    """Replays transactions against k shards under an assignment.

    In ``migrate`` mode the assignment is copied and mutated as state
    moves happen; pass ``state`` (a :class:`WorldState`) to charge
    per-vertex transfer times proportional to serialized account size.
    """

    def __init__(
        self,
        k: int,
        assignment: Mapping[int, int],
        config: Optional[ShardedExecutionConfig] = None,
        state=None,
        strict: bool = False,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.config = config or ShardedExecutionConfig()
        self.assignment = (
            dict(assignment) if self.config.mode == "migrate" else assignment
        )
        self.state = state
        self.strict = strict
        self.sim = Simulator()
        self.shards = [Shard(i, self.sim) for i in range(k)]
        self.latencies: List[float] = []
        self.completed = 0
        self.single_shard = 0
        self.multi_shard = 0
        self.migrations = 0
        self.migration_bytes = 0
        self.unassigned_endpoints = 0
        self._last_completion = 0.0

    # ------------------------------------------------------------------

    def shard_set(self, endpoints: Iterable[int]) -> Tuple[int, ...]:
        """Distinct shards hosting the endpoints (sorted for determinism).

        Endpoints without an assignment are counted in
        ``unassigned_endpoints`` (and raise under ``strict``) rather
        than silently dropped.
        """
        shards: Set[int] = set()
        for v in endpoints:
            s = self.assignment.get(v)
            if s is not None:
                shards.add(s)
            else:
                self._note_unassigned(v)
        return tuple(sorted(shards))

    def _note_unassigned(self, vertex: int) -> None:
        if self.strict:
            raise UnassignedVertexError(vertex)
        self.unassigned_endpoints += 1

    def submit_endpoints(self, tx_id: int, endpoints: Sequence[int]) -> None:
        """Inject one transaction described by its endpoint vertices.

        Dispatches to 2PC or state-migration handling per the config;
        in migrate mode the shard set is computed against the *live*
        (mutated) assignment.
        """
        if self.config.mode == "migrate":
            self._submit_migrating(tx_id, endpoints)
        else:
            self.submit_transaction(tx_id, self.shard_set(endpoints))

    def submit_transaction(self, tx_id: int, shards: Tuple[int, ...]) -> None:
        """Inject one 2PC-mode transaction at the current sim time."""
        if not shards:
            return
        cfg = self.config
        if len(shards) == 1:
            self.single_shard += 1
            state = _TxState(tx_id, shards, self.sim.now, pending=1, phase="commit")
            self.shards[shards[0]].submit(
                cfg.service_time, lambda st=state: self._phase_done(st)
            )
            return

        self.multi_shard += 1
        state = _TxState(tx_id, shards, self.sim.now, pending=len(shards), phase="prepare")
        for s in shards:
            self.shards[s].submit(
                cfg.prepare_time, lambda st=state: self._phase_done(st)
            )

    def _submit_migrating(self, tx_id: int, endpoints: Sequence[int]) -> None:
        """Migrate minority vertices to the majority shard, run locally."""
        placed = []
        for v in dict.fromkeys(endpoints):
            if v in self.assignment:
                placed.append(v)
            else:
                self._note_unassigned(v)
        if not placed:
            return
        shards = self.shard_set(placed)
        if len(shards) == 1:
            self.single_shard += 1
            state = _TxState(tx_id, shards, self.sim.now, pending=1, phase="commit")
            self.shards[shards[0]].submit(
                self.config.service_time, lambda st=state: self._phase_done(st)
            )
            return

        self.multi_shard += 1
        # majority shard hosts the most endpoints; ties go to the lowest id
        votes: Dict[int, int] = {}
        for v in placed:
            votes[self.assignment[v]] = votes.get(self.assignment[v], 0) + 1
        target = min(votes, key=lambda s: (-votes[s], s))

        movers = [v for v in placed if self.assignment[v] != target]
        jobs: List[Tuple[int, float]] = []  # (shard, transfer time)
        for v in movers:
            seconds = self._migration_time(v)
            jobs.append((self.assignment[v], seconds))  # serialize at source
            jobs.append((target, seconds))              # apply at target
            self.assignment[v] = target                 # sticky move
            self.migrations += 1

        state = _TxState(
            tx_id, (target,), self.sim.now, pending=len(jobs), phase="migrate"
        )
        for shard, seconds in jobs:
            self.shards[shard].submit(
                seconds, lambda st=state: self._phase_done(st)
            )

    def _migration_time(self, vertex: int) -> float:
        if self.state is not None:
            acct = self.state.get_optional(vertex)
            if acct is not None:
                size = acct.state_bytes()
                self.migration_bytes += size
                return size / self.config.migration_bandwidth
        return self.config.migration_time_fixed

    def _phase_done(self, state: _TxState) -> None:
        state.pending -= 1
        if state.pending > 0:
            return
        if state.phase == "prepare":
            # all prepared: votes travel one RTT, then commit everywhere
            state.phase = "commit"
            state.pending = len(state.shards)

            def start_commits() -> None:
                for s in state.shards:
                    self.shards[s].submit(
                        self.config.commit_time,
                        lambda st=state: self._phase_done(st),
                    )

            self.sim.schedule(self.config.network_rtt, start_commits)
        elif state.phase == "migrate":
            # all state landed on the target: execute locally
            state.phase = "commit"
            state.pending = 1
            target = state.shards[0]
            self.shards[target].submit(
                self.config.service_time, lambda st=state: self._phase_done(st)
            )
        else:
            self.completed += 1
            self.latencies.append(self.sim.now - state.arrived_at)
            self._last_completion = self.sim.now

    # ------------------------------------------------------------------

    def replay(
        self,
        interactions: Sequence[Interaction],
        time_scale: float = 0.0,
        arrival_rate: Optional[float] = None,
    ) -> ThroughputReport:
        """Replay an interaction log grouped into transactions.

        This closure-based engine is the reference implementation:
        :meth:`replay_columnar`, which every experiment cell and
        EXT-PITFALL run, is checked bit-identical against it.

        Arrival process: either compress the original timestamps by
        ``time_scale`` (seconds of sim time per second of history), or —
        the default — open-loop Poisson-like arrivals at
        ``arrival_rate`` transactions/second (deterministically spaced;
        rate defaults to 80% of the single-shard capacity k/service).
        """
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        if arrival_rate is not None and not arrival_rate > 0:
            raise ValueError(f"arrival_rate must be > 0, got {arrival_rate}")
        txs: List[Tuple[int, float, Tuple[int, ...]]] = []
        for tx_id, bucket in group_by_transaction(interactions):
            endpoints = tuple(
                dict.fromkeys(e for it in bucket for e in (it.src, it.dst))
            )
            txs.append((tx_id, bucket[0].timestamp, endpoints))

        if time_scale > 0:
            base = txs[0][1] if txs else 0.0
            for tx_id, ts, endpoints in txs:
                self.sim.schedule_at(
                    (ts - base) * time_scale,
                    lambda t=tx_id, e=endpoints: self.submit_endpoints(t, e),
                )
        else:
            if arrival_rate is None:
                arrival_rate = 0.8 * self.k / self.config.service_time
            gap = 1.0 / arrival_rate
            for i, (tx_id, _ts, endpoints) in enumerate(txs):
                self.sim.schedule_at(
                    i * gap, lambda t=tx_id, e=endpoints: self.submit_endpoints(t, e)
                )

        self.sim.run()
        return self.report()

    def replay_columnar(
        self,
        log,
        lo: int = 0,
        hi: Optional[int] = None,
        time_scale: float = 0.0,
        arrival_rate: Optional[float] = None,
        strict: bool = True,
    ) -> ThroughputReport:
        """Replay rows ``[lo, hi)`` of a :class:`ColumnarLog` batched.

        The columnar driver groups transactions directly off the dense
        ``src_indices()``/``dst_indices()``/``tx_ids()`` columns and
        runs a flat-heap event engine (:mod:`repro.sharding.batch`) —
        no ``Interaction`` boxing, no per-phase closures — producing a
        report bit-identical to :meth:`replay` on the boxed equivalent
        of the same slice.

        ``strict`` (the default): a replay of the log a partition
        was computed from must not touch unpartitioned vertices
        (:class:`UnassignedVertexError` names the offender).  Pass
        ``strict=False`` to count them in ``unassigned_endpoints``
        instead.
        """
        if hi is None:
            hi = len(log)
        if not 0 <= lo <= hi <= len(log):
            raise ValueError(
                f"invalid row window [{lo}, {hi}) for a {len(log)}-row log"
            )
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        if arrival_rate is not None and not arrival_rate > 0:
            raise ValueError(f"arrival_rate must be > 0, got {arrival_rate}")
        run_columnar(self, log, lo, hi, time_scale, arrival_rate, strict)
        return self.report()

    def report(self) -> ThroughputReport:
        elapsed = max(self._last_completion, self.sim.now)
        lat = self.latencies
        skip = int(len(lat) * self.config.warmup_fraction)
        return ThroughputReport(
            k=self.k,
            completed=self.completed,
            single_shard=self.single_shard,
            multi_shard=self.multi_shard,
            elapsed=elapsed,
            throughput=self.completed / elapsed if elapsed > 0 else 0.0,
            latency=LatencyStats.from_samples(lat[skip:]),
            utilization=tuple(
                s.utilization(elapsed) if elapsed > 0 else 0.0 for s in self.shards
            ),
            migrations=self.migrations,
            migration_bytes=self.migration_bytes,
            unassigned_endpoints=self.unassigned_endpoints,
        )
