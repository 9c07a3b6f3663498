"""Single-pass multi-method replay: one log stream, N method fan-outs.

Every figure and benchmark that compares partitioning methods replays
the *same* interaction log once per method.  All of that work except
the method's own decisions is identical across runs: the window
slicing, the transaction grouping and the stream state — the dense
cumulative graph (first-seen vertices, activity, distinct edges and
their counts) — do not depend on the method at all.

:class:`MultiReplayEngine` streams the log exactly once and maintains
the shared state a single time, fanning out only the per-method parts:

* the :class:`~repro.core.assignment.ShardAssignment` (placement is
  method- and history-dependent), numbered like the log: dense index
  ``i`` of every assignment is dense index ``i`` of the log, so the
  placement groups reach the methods as dense slices of the src/dst
  columns and the accounting kernels read ``assignment.shards`` as is,
* the incremental static-cut counter (depends on the assignment),
* the per-window dynamic counters, the
  :class:`~repro.metrics.series.MetricSeries` and the repartition
  events.

For deterministic (seeded) methods the results are bit-identical to N
independent :class:`~repro.core.replay.ReplayEngine` runs — the single
engine is in fact implemented as a one-method fan-out, so there is
only one streaming loop in the codebase.  The
:class:`~repro.kernels.StreamState` is the replay's only cumulative
graph: cold METIS partitions its CSR collapse, moves carry its
activity weights, and the dict-of-dicts
:class:`~repro.graph.digraph.WeightedDiGraph` of ``ctx.graph`` and
:attr:`ReplayResult.graph <repro.core.replay.ReplayResult.graph>` is
built from the replayed rows only when something reads it.

The methods of one window also share its graphs: the engine gives
every :class:`~repro.core.base.ReplayContext` of a window one dict,
through which :meth:`~repro.core.base.ReplayContext.window_graph`
builds each graph once — the stream state's CSR for cold METIS, the
period CSRs for cold R-METIS/TR-METIS and KL, and the ``graph_batch``
aggregate under the latter two.  Bisections are memoised on the graph
they split (:mod:`repro.metis.bisect`), so a method's k=2, 4 and 8
cells that repartition in the same window with the same seed compute
their common bisections once.  The dict is replaced when the next
window starts, so each window's graphs, and the memos on them, die
with it.

The engine interns its input once: a plain ``Sequence[Interaction]``
becomes a :class:`~repro.graph.columnar.ColumnarLog` in ``__init__``,
and a ``ColumnarLog`` (what the workload generator and the trace
loaders produce) is used as is.  Every method therefore runs the same
columnar code whatever the caller passed: window boundaries resolve by
bisect, a context names the window's and the period's rows as row
ranges of the one log, and warm METIS, the KL bridge and the period
graph read the dense columns.

This engine is the execution substrate of the declarative experiment
API: :func:`repro.experiments.run.run_experiment` plans a (method × k
× seed) grid, shares one engine pass per worker, and serializes the
fan-out into a :class:`~repro.experiments.results.ResultSet` — prefer
that entry point for sweeps (parallelism, on-disk resume); construct
the engine directly for one-off method studies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro import kernels
from repro.core.assignment import ShardAssignment
from repro.core.base import PartitionMethod, RepartitionEvent, ReplayContext
from repro.core.replay import ReplayResult, apply_proposal
from repro.errors import InvalidPartitionError
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import METRIC_WINDOW
from repro.kernels import StreamState
from repro.metrics.series import MetricPoint, MetricSeries


class _MethodState:
    """Everything one method accumulates during the shared pass."""

    __slots__ = (
        "method", "k", "assignment", "series", "events",
        "static_cut", "total_moves", "last_repartition_ts", "period_start",
    )

    def __init__(self, method: PartitionMethod, first_ts: float,
                 ids: Sequence[int]):
        self.method = method
        self.k = method.k
        self.assignment = ShardAssignment(method.k, ids)
        self.series = MetricSeries(method=method.name, k=method.k)
        self.events: List[RepartitionEvent] = []
        self.static_cut = 0
        self.total_moves = 0
        self.last_repartition_ts = first_ts
        # index into the shared log where this method's current
        # repartition period begins
        self.period_start = 0

    def result(self, log: ColumnarLog, log_hi: int) -> ReplayResult:
        return ReplayResult(
            method=self.method.name,
            k=self.k,
            series=self.series,
            assignment=self.assignment,
            events=self.events,
            log=log,
            log_hi=log_hi,
        )


class MultiReplayEngine:
    """Replays an interaction log through many methods in one pass."""

    def __init__(
        self,
        interactions: Union[Sequence[Interaction], ColumnarLog],
        methods: Sequence[PartitionMethod],
        metric_window: float = METRIC_WINDOW,
        end_ts: Optional[float] = None,
    ):
        """Args:
            interactions: the full, time-ordered interaction log — a
                plain sequence (interned here) or a
                :class:`ColumnarLog` (used as is); :attr:`log` is the
                one ``ColumnarLog`` the replay streams.
            methods: the partitioning methods under study.  Must be
                distinct instances (each carries its own RNG and
                repartitioning state); methods may use different ``k``.
            metric_window: sampling window width in seconds (paper: 4h).
            end_ts: replay horizon; defaults to one second past the
                last interaction (the final-partial-window contract).
        """
        if metric_window <= 0:
            raise ValueError("metric_window must be positive")
        if len(set(map(id, methods))) != len(methods):
            raise ValueError("methods must be distinct instances")
        if not isinstance(interactions, ColumnarLog):
            interactions = ColumnarLog(interactions)
        self.log = interactions
        n = len(interactions)
        self.methods = list(methods)
        self.metric_window = metric_window
        self._first_ts = interactions.first_timestamp if n else 0.0
        if end_ts is None:
            # one full second past the last interaction: a naive +epsilon
            # is absorbed by float rounding at multi-year timestamps and
            # silently drops the final window
            end_ts = (interactions.last_timestamp + 1.0) if n else 0.0
        self.end_ts = end_ts

    # ------------------------------------------------------------------

    def run(self) -> List[ReplayResult]:
        """One pass over the log; results in ``methods`` order."""
        log = self.log
        n_log = len(log)
        metric_window = self.metric_window
        end_ts = self.end_ts

        # batch-kernel inputs: the raw dense columns and the shared
        # stream state (the dense cumulative graph)
        kr = kernels.active()
        stream = StreamState()
        src_col = log.src_indices()
        dst_col = log.dst_indices()
        tx_col = log.tx_ids()

        for m in self.methods:
            m.begin_replay()
        ids = log.vertex_ids()
        states = [_MethodState(m, self._first_ts, ids) for m in self.methods]

        idx = 0
        window_start = self._first_ts if n_log else 0.0

        while window_start < end_ts:
            window_end = window_start + metric_window
            lo = idx
            idx = max(log.index_at(window_end), lo)

            # shared pass: one kernel call folds the window into the
            # stream state (first-seen vertices, activity, distinct
            # edges and their counts) and bucketises it for placement;
            # first-seen dense ids are contiguous, so the window's new
            # vertices are the ones past the previous maximum
            n_seen = stream.num_vertices
            batch = kr.window_pass(src_col, dst_col, tx_col, lo, idx, stream)
            n_streamed = stream.num_vertices
            # static cut counts distinct *directed* edges, per the
            # paper's directed-graph formulation
            distinct_edges = stream.num_edges

            # placement inputs, shared across methods: the dense
            # endpoint appearance list (src, dst per row) of each
            # transaction bucket that introduced at least one
            # first-seen vertex (all other buckets skip the placement
            # loop entirely)
            group_inputs: List = []
            for g_lo, g_hi, new_dense in batch.placement_groups:
                endpoints = [0, 0] * (g_hi - g_lo)
                endpoints[::2] = src_col[g_lo:g_hi]
                endpoints[1::2] = dst_col[g_lo:g_hi]
                group_inputs.append((new_dense, endpoints))

            window_rows = idx - lo
            # the window's graphs, built once for every method that
            # repartitions on them (ReplayContext.window_graph); the
            # dict, and every graph and memo in it, dies with the window
            window_graphs: dict = {}

            # fan-out: placement, accounting and the window close for
            # each method.  Placement first, bulk accounting second —
            # equivalent to the legacy interleaved walk because
            # placement rules read only the shards and vertex counts,
            # never the activity weights accounting mutates.
            for st in states:
                method = st.method
                assignment = st.assignment
                k = st.k
                shards = assignment.shards
                for new_dense, endpoints in group_inputs:
                    method.place_new_vertices(new_dense, endpoints, assignment)
                if -1 in shards[n_seen:n_streamed]:
                    raise InvalidPartitionError(
                        f"{method.name} left a first-seen vertex unplaced")

                wcut, wtotal, load, weight_delta, static_delta = (
                    kr.account_window(src_col, dst_col, lo, idx,
                                      batch.new_edges, shards, k))
                shard_weights = assignment._weights
                for shard in range(k):
                    shard_weights[shard] += weight_delta[shard]
                st.static_cut += static_delta

                # window close: metrics, repartition offer, series point
                dyn_cut = wcut / wtotal if wtotal else 0.0
                load_total = sum(load)
                dyn_balance = (
                    (max(load) * k / load_total) if load_total else 1.0
                )

                ctx = ReplayContext(
                    now=window_end,
                    k=k,
                    assignment=assignment,
                    last_repartition_ts=st.last_repartition_ts,
                    window_dynamic_edge_cut=dyn_cut,
                    window_dynamic_balance=dyn_balance,
                    rng=method.rng,
                    columnar_log=log,
                    log_hi=idx,
                    log_window_start=lo,
                    log_period_start=st.period_start,
                    stream=stream,
                    window_graphs=window_graphs,
                )
                proposal = method.maybe_repartition(ctx)
                if proposal is not None:
                    moves = apply_proposal(proposal, assignment, stream.activity)
                    st.total_moves += moves
                    # recount the static cut over the stream's
                    # distinct-edge arrays
                    st.static_cut = kr.static_cut_count(
                        stream.esrc, stream.edst, shards)
                    st.period_start = idx
                    st.last_repartition_ts = window_end
                    st.events.append(
                        RepartitionEvent(
                            ts=window_end,
                            moves=moves,
                            reassigned=len(proposal),
                            reason=method.name,
                        )
                    )

                st.series.append(
                    MetricPoint(
                        ts=window_start,
                        static_edge_cut=(
                            (st.static_cut / distinct_edges) if distinct_edges else 0.0
                        ),
                        dynamic_edge_cut=dyn_cut,
                        static_balance=assignment.static_balance(),
                        dynamic_balance=dyn_balance,
                        cumulative_moves=st.total_moves,
                        interactions=window_rows,
                    )
                )

            window_start = window_end

        return [st.result(log, idx) for st in states]


def replay_methods(
    interactions: Union[Sequence[Interaction], ColumnarLog],
    methods: Sequence[PartitionMethod],
    metric_window: float = METRIC_WINDOW,
) -> List[ReplayResult]:
    """Convenience one-call multi-method replay (results in input order)."""
    return MultiReplayEngine(interactions, methods, metric_window=metric_window).run()
