"""The closure-per-event execution engine, kept as the test oracle.

``ShardedExecution.replay_columnar`` (``repro.sharding.coordinator``)
replays rows of a ``ColumnarLog`` on one flat event heap.  This module
keeps the engine it replaced, trimmed to what :meth:`ClosureExecution.
report` reads: a :class:`Simulator` that fires one callback per event,
:class:`Shard` objects that run one closure per job, and
:class:`ClosureExecution`, which replays a boxed ``Interaction`` list
through them, counting unassigned endpoints (it has no strict mode).

Tests compare the two engines' reports with ``==``: both evaluate every
float expression in the same order on the same values, and both fire
events in ``(time, seq)`` order with every arrival scheduled before the
first runtime event.  Events and jobs stay dataclasses, as they were in
the replaced engine, so ``benchmarks/bench_execution_sweep.py``'s >= 2x
gate still times the columnar engine against that engine's costs.

Import it as ``tests.sharding.closure_engine``.
"""

import dataclasses
import heapq
from collections import deque
from typing import Callable

from repro.errors import SimulationClockError
from repro.graph.builder import group_by_transaction
from repro.sharding.coordinator import ShardedExecutionConfig
from repro.sharding.throughput import LatencyStats, ThroughputReport


@dataclasses.dataclass(order=True)
class ScheduledEvent:
    """One pending event; ordering is (time, seq)."""

    time: float
    seq: int
    callback: Callable[[], None] = dataclasses.field(compare=False)


class EventQueue:
    """A min-heap of events; simultaneous events pop in push order."""

    def __init__(self):
        self._heap = []
        self._seq = 0

    def push(self, time, callback):
        heapq.heappush(self._heap, ScheduledEvent(time, self._seq, callback))
        self._seq += 1

    def pop(self):
        """The next event, or None when drained."""
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self):
        return self._heap[0].time if self._heap else None


class Simulator:
    """A discrete-event clock and event loop."""

    def __init__(self):
        self._queue = EventQueue()
        self.now = 0.0

    def schedule(self, delay, callback):
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationClockError(f"negative delay: {delay}")
        self._queue.push(self.now + delay, callback)

    def schedule_at(self, time, callback):
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationClockError(f"cannot schedule at {time} < now {self.now}")
        self._queue.push(time, callback)

    def run(self, until=None):
        """Fire events until the queue drains or the next one is past
        ``until``.  With ``until``, the clock ends there unless it is
        already past it.  Returns the final clock."""
        while True:
            next_time = self._queue.peek_time()
            if next_time is None or (until is not None and next_time > until):
                if until is not None and until > self.now:
                    self.now = until
                return self.now
            event = self._queue.pop()
            self.now = event.time
            event.callback()


@dataclasses.dataclass
class _Job:
    service_time: float
    on_done: Callable[[], None]


class Shard:
    """A serial execution resource with a FIFO job queue."""

    def __init__(self, sim):
        self.sim = sim
        self._queue = deque()
        self._busy = False
        self.busy_time = 0.0        # total seconds spent executing

    def submit(self, service_time, on_done):
        """Enqueue a job; ``on_done`` fires when it finishes executing."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        self._queue.append(_Job(service_time, on_done))
        if not self._busy:
            self._start_next()

    def _start_next(self):
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        job = self._queue.popleft()

        def finish():
            self.busy_time += job.service_time
            job.on_done()
            self._start_next()

        self.sim.schedule(job.service_time, finish)

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` spent executing."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


@dataclasses.dataclass
class _TxState:
    shards: tuple
    arrived_at: float
    pending: int
    phase: str


class ClosureExecution:
    """Replays an ``Interaction`` list against k shards; the cost model
    of ``ShardedExecution`` with one closure per event and per job."""

    def __init__(self, k, assignment, config=None, state=None):
        self.k = k
        self.config = config or ShardedExecutionConfig()
        self.assignment = (
            dict(assignment) if self.config.mode == "migrate" else assignment
        )
        self.state = state
        self.sim = Simulator()
        self.shards = [Shard(self.sim) for _ in range(k)]
        self.latencies = []
        self.completed = 0
        self.single_shard = 0
        self.multi_shard = 0
        self.migrations = 0
        self.migration_bytes = 0
        self.unassigned_endpoints = 0
        self._last_completion = 0.0

    def _shard_set(self, endpoints):
        shards = set()
        for v in endpoints:
            s = self.assignment.get(v)
            if s is not None:
                shards.add(s)
            else:
                self.unassigned_endpoints += 1
        return tuple(sorted(shards))

    def _submit(self, endpoints):
        if self.config.mode == "migrate":
            self._submit_migrating(endpoints)
            return
        shards = self._shard_set(endpoints)
        if not shards:
            return
        if len(shards) == 1:
            self._submit_local(shards[0])
            return
        self.multi_shard += 1
        state = _TxState(shards, self.sim.now, pending=len(shards), phase="prepare")
        for s in shards:
            self.shards[s].submit(
                self.config.prepare_time, lambda st=state: self._phase_done(st)
            )

    def _submit_local(self, shard):
        self.single_shard += 1
        state = _TxState((shard,), self.sim.now, pending=1, phase="commit")
        self.shards[shard].submit(
            self.config.service_time, lambda st=state: self._phase_done(st)
        )

    def _submit_migrating(self, endpoints):
        """Migrate minority vertices to the majority shard, run locally."""
        placed = []
        for v in dict.fromkeys(endpoints):
            if v in self.assignment:
                placed.append(v)
            else:
                self.unassigned_endpoints += 1
        if not placed:
            return
        shards = self._shard_set(placed)
        if len(shards) == 1:
            self._submit_local(shards[0])
            return

        self.multi_shard += 1
        # majority shard hosts the most endpoints; ties go to the lowest id
        votes = {}
        for v in placed:
            votes[self.assignment[v]] = votes.get(self.assignment[v], 0) + 1
        target = min(votes, key=lambda s: (-votes[s], s))

        movers = [v for v in placed if self.assignment[v] != target]
        jobs = []  # (shard, transfer time)
        for v in movers:
            seconds = self._migration_time(v)
            jobs.append((self.assignment[v], seconds))  # serialize at source
            jobs.append((target, seconds))              # apply at target
            self.assignment[v] = target                 # sticky move
            self.migrations += 1

        state = _TxState((target,), self.sim.now, pending=len(jobs), phase="migrate")
        for shard, seconds in jobs:
            self.shards[shard].submit(seconds, lambda st=state: self._phase_done(st))

    def _migration_time(self, vertex):
        if self.state is not None:
            acct = self.state.get_optional(vertex)
            if acct is not None:
                size = acct.state_bytes()
                self.migration_bytes += size
                return size / self.config.migration_bandwidth
        return self.config.migration_time_fixed

    def _phase_done(self, state):
        state.pending -= 1
        if state.pending > 0:
            return
        if state.phase == "prepare":
            # all prepared: votes travel one RTT, then commit everywhere
            state.phase = "commit"
            state.pending = len(state.shards)

            def start_commits():
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
            self.shards[state.shards[0]].submit(
                self.config.service_time, lambda st=state: self._phase_done(st)
            )
        else:
            self.completed += 1
            self.latencies.append(self.sim.now - state.arrived_at)
            self._last_completion = self.sim.now

    def replay(self, interactions, time_scale=0.0, arrival_rate=None):
        """Replay an interaction list grouped into transactions, with
        ``replay_columnar``'s arrival process; returns the report."""
        txs = []
        for _tx_id, bucket in group_by_transaction(interactions):
            endpoints = tuple(
                dict.fromkeys(e for it in bucket for e in (it.src, it.dst))
            )
            txs.append((bucket[0].timestamp, endpoints))

        # every arrival is scheduled before the first runtime event
        if time_scale > 0:
            base = txs[0][0] if txs else 0.0
            for ts, endpoints in txs:
                self.sim.schedule_at(
                    (ts - base) * time_scale, lambda e=endpoints: self._submit(e)
                )
        else:
            if arrival_rate is None:
                arrival_rate = 0.8 * self.k / self.config.service_time
            gap = 1.0 / arrival_rate
            for i, (_ts, endpoints) in enumerate(txs):
                self.sim.schedule_at(i * gap, lambda e=endpoints: self._submit(e))

        self.sim.run()
        return self.report()

    def report(self):
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
            utilization=tuple(s.utilization(elapsed) for s in self.shards),
            migrations=self.migrations,
            migration_bytes=self.migration_bytes,
            unassigned_endpoints=self.unassigned_endpoints,
        )
