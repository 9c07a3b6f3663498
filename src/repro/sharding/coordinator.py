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

:meth:`ShardedExecution.replay_columnar` replays rows of a
:class:`~repro.graph.columnar.ColumnarLog`: each transaction arrives at
its (scaled) timestamp or at a fixed rate, its shard set is derived
from a vertex → shard assignment, and the report aggregates throughput
and latency.  The engine is a discrete-event simulation over one flat
heap of ``(time, seq, kind, payload)`` events:

* **Event order.**  Events fire in ``(time, seq)`` order, ``seq``
  assigned when the event is scheduled.  Arrivals own seqs ``0..n-1``
  (a sorted cursor, not heap entries) and runtime events count up from
  ``n``, so an arrival fires before every runtime event at its time.
* **Shards** are serial FIFO resources: a finishing job accrues its
  busy time, runs its phase hook (which may enqueue more work, on the
  same shard too), *then* the shard starts its next queued job.

``tests/sharding/closure_engine.py`` keeps a closure-per-event
simulator of the same cost model as the oracle this engine is checked
against: reports must compare equal with ``==``, so both evaluate
every float expression in the same order on the same values.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from heapq import heappop, heappush
from typing import Any, List, Mapping, Optional, Tuple

from repro.errors import (
    InvalidPartitionError,
    SimulationClockError,
    UnassignedVertexError,
)
from repro.sharding.throughput import LatencyStats, ThroughputReport

# heap event kinds; payload is a shard id (_FINISH) or a tx state (_COMMITS)
_FINISH = 0
_COMMITS = 1

# tx phases (list layout: [pending, phase, arrived_at, shards])
_PH_PREPARE = 0
_PH_COMMIT = 1
_PH_MIGRATE = 2


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


def _transactions(
    log: Any, lo: int, hi: int
) -> Tuple[List[float], List[Tuple[int, ...]]]:
    """Group rows ``[lo, hi)`` into transactions off the dense columns.

    Returns parallel lists: first-row timestamp and deduplicated
    endpoint tuple (dense indices in first-occurrence order over
    ``src0, dst0, src1, dst1, ...``) per transaction.  Rows of one
    transaction are assumed contiguous, exactly as
    :func:`repro.graph.builder.group_by_transaction` assumes.
    """
    ts_col = log.timestamps()
    src = log.src_indices()
    dst = log.dst_indices()
    txc = log.tx_ids()

    times: List[float] = []
    endpoints: List[Tuple[int, ...]] = []
    a = lo
    while a < hi:
        tx = txc[a]
        b = a + 1
        while b < hi and txc[b] == tx:
            b += 1
        if b - a == 1:
            s0 = src[a]
            d0 = dst[a]
            eps = (s0,) if s0 == d0 else (s0, d0)
        else:
            eps = tuple(
                dict.fromkeys(
                    x for j in range(a, b) for x in (src[j], dst[j])
                )
            )
        times.append(ts_col[a])
        endpoints.append(eps)
        a = b
    return times, endpoints


class ShardedExecution:
    """Replays transactions against k shards under an assignment.

    In ``migrate`` mode the assignment is copied and mutated as state
    moves happen (``self.assignment`` is the live map, and a later
    replay starts from it); pass ``state`` (a :class:`WorldState`) to
    charge per-vertex transfer times proportional to serialized account
    size.
    """

    def __init__(
        self,
        k: int,
        assignment: Mapping[int, int],
        config: Optional[ShardedExecutionConfig] = None,
        state=None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.config = config or ShardedExecutionConfig()
        self.assignment = (
            dict(assignment) if self.config.mode == "migrate" else assignment
        )
        self.state = state

    def replay_columnar(
        self,
        log,
        lo: int = 0,
        hi: Optional[int] = None,
        time_scale: float = 0.0,
        arrival_rate: Optional[float] = None,
        strict: bool = True,
    ) -> ThroughputReport:
        """Replay rows ``[lo, hi)`` of a :class:`ColumnarLog`.

        Arrival process: either compress the original timestamps by
        ``time_scale`` (seconds of sim time per second of history), or —
        the default — open-loop arrivals at ``arrival_rate``
        transactions/second (deterministically spaced; the rate defaults
        to 80% of the single-shard capacity k/service).

        ``strict`` (the default): a replay of the log a partition
        was computed from must not touch unpartitioned vertices
        (:class:`UnassignedVertexError` names the offender).  Pass
        ``strict=False`` to count them in ``unassigned_endpoints``
        instead.  A shard outside ``[0, k)`` raises
        :class:`InvalidPartitionError` either way.
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

        k = self.k
        cfg = self.config
        migrate = cfg.mode == "migrate"
        raw_ids = log.vertex_ids()
        assignment = self.assignment
        # dense index -> shard, None where unassigned; checked once here
        # so the engine below indexes shards without a bounds check
        shard_of = [assignment.get(raw) for raw in raw_ids]
        valid = {None, *range(k)}
        if not valid.issuperset(shard_of):
            v = next(v for v, s in enumerate(shard_of) if s not in valid)
            raise InvalidPartitionError(
                f"vertex {raw_ids[v]!r} is assigned to shard {shard_of[v]!r}, "
                f"outside [0, {k}) for k={k}"
            )

        arr_time, arr_eps = _transactions(log, lo, hi)
        n = len(arr_time)
        if time_scale > 0:
            base = arr_time[0] if arr_time else 0.0
            arr_time = [(t - base) * time_scale for t in arr_time]
            for t in arr_time:
                if t < 0:
                    raise SimulationClockError(f"cannot schedule at {t} < now 0.0")
            order = sorted(range(n), key=lambda i: (arr_time[i], i))
        else:
            if arrival_rate is None:
                arrival_rate = 0.8 * k / cfg.service_time
            gap = 1.0 / arrival_rate
            arr_time = [i * gap for i in range(n)]
            order = list(range(n))

        # ---- engine state ------------------------------------------------
        heap: List[Tuple[float, int, int, Any]] = []
        seq = n  # arrivals own seqs 0..n-1
        queues = [deque() for _ in range(k)]
        current: List[Any] = [None] * k  # (service, tx state) per busy shard
        busy_time = [0.0] * k

        latencies: List[float] = []
        completed = 0
        single_shard = 0
        multi_shard = 0
        migrations = 0
        migration_bytes = 0
        unassigned = 0
        now = 0.0

        service_time = cfg.service_time
        prepare_time = cfg.prepare_time
        commit_time = cfg.commit_time
        network_rtt = cfg.network_rtt
        world_state = self.state

        def submit(s: int, service: float, state: list) -> None:
            nonlocal seq
            if current[s] is not None:
                queues[s].append((service, state))
            else:
                current[s] = (service, state)
                heappush(heap, (now + service, seq, _FINISH, s))
                seq += 1

        def phase_done(state: list) -> None:
            nonlocal seq, completed
            state[0] -= 1
            if state[0] > 0:
                return
            phase = state[1]
            if phase == _PH_PREPARE:
                # all prepared: votes travel one RTT, then commit everywhere
                state[1] = _PH_COMMIT
                state[0] = len(state[3])
                heappush(heap, (now + network_rtt, seq, _COMMITS, state))
                seq += 1
            elif phase == _PH_MIGRATE:
                # all state landed on the target: execute locally
                state[1] = _PH_COMMIT
                state[0] = 1
                submit(state[3][0], service_time, state)
            else:
                completed += 1
                latencies.append(now - state[2])

        def migration_time(dense: int) -> float:
            nonlocal migration_bytes
            if world_state is not None:
                acct = world_state.get_optional(raw_ids[dense])
                if acct is not None:
                    size = acct.state_bytes()
                    migration_bytes += size
                    return size / cfg.migration_bandwidth
            return cfg.migration_time_fixed

        def note_unassigned(dense: int) -> None:
            nonlocal unassigned
            if strict:
                raise UnassignedVertexError(raw_ids[dense])
            unassigned += 1

        def dispatch(i: int) -> None:
            nonlocal single_shard, multi_shard, migrations
            eps = arr_eps[i]
            if migrate:
                placed = []
                for v in eps:
                    if shard_of[v] is not None:
                        placed.append(v)
                    else:
                        note_unassigned(v)
                if not placed:
                    return
                shards = tuple(sorted({shard_of[v] for v in placed}))
                if len(shards) == 1:
                    single_shard += 1
                    state = [1, _PH_COMMIT, now, shards]
                    submit(shards[0], service_time, state)
                    return
                multi_shard += 1
                # majority shard hosts the most endpoints; ties go to the
                # lowest id
                votes = {}
                for v in placed:
                    s = shard_of[v]
                    votes[s] = votes.get(s, 0) + 1
                target = min(votes, key=lambda s: (-votes[s], s))
                jobs: List[Tuple[int, float]] = []
                for v in placed:
                    s = shard_of[v]
                    if s == target:
                        continue
                    seconds = migration_time(v)
                    jobs.append((s, seconds))       # serialize at source
                    jobs.append((target, seconds))  # apply at target
                    shard_of[v] = target            # sticky move
                    assignment[raw_ids[v]] = target
                    migrations += 1
                state = [len(jobs), _PH_MIGRATE, now, (target,)]
                for s, seconds in jobs:
                    submit(s, seconds, state)
                return
            sset = set()
            for v in eps:
                s = shard_of[v]
                if s is not None:
                    sset.add(s)
                else:
                    note_unassigned(v)
            shards = tuple(sorted(sset))
            if not shards:
                return
            if len(shards) == 1:
                single_shard += 1
                state = [1, _PH_COMMIT, now, shards]
                submit(shards[0], service_time, state)
                return
            multi_shard += 1
            state = [len(shards), _PH_PREPARE, now, shards]
            for s in shards:
                submit(s, prepare_time, state)

        # ---- event loop --------------------------------------------------
        ai = 0
        while True:
            if ai < n:
                i = order[ai]
                t_arr = arr_time[i]
                if not heap or (t_arr, i) < (heap[0][0], heap[0][1]):
                    now = t_arr
                    ai += 1
                    dispatch(i)
                    continue
            if not heap:
                break
            t, _sq, kind, payload = heappop(heap)
            now = t
            if kind == _FINISH:
                s = payload
                service, state = current[s]
                busy_time[s] += service
                phase_done(state)
                q = queues[s]
                if q:
                    job = current[s] = q.popleft()
                    heappush(heap, (now + job[0], seq, _FINISH, s))
                    seq += 1
                else:
                    current[s] = None
            else:  # _COMMITS: votes arrived, commit on every involved shard
                for s in payload[3]:
                    submit(s, commit_time, payload)

        # the clock stops at the last event: the last completion, or a
        # later arrival that touched no assigned vertex
        elapsed = now
        skip = int(len(latencies) * cfg.warmup_fraction)
        return ThroughputReport(
            k=k,
            completed=completed,
            single_shard=single_shard,
            multi_shard=multi_shard,
            elapsed=elapsed,
            throughput=completed / elapsed if elapsed > 0 else 0.0,
            latency=LatencyStats.from_samples(latencies[skip:]),
            utilization=tuple(
                busy / elapsed if elapsed > 0 else 0.0 for busy in busy_time
            ),
            migrations=migrations,
            migration_bytes=migration_bytes,
            unassigned_endpoints=unassigned,
        )
