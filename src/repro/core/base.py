"""Partition-method interface and the replay context it sees.

A :class:`PartitionMethod` answers two questions:

1. *Where does a brand-new vertex go?*  (:meth:`place_vertex`) — by
   default the paper's min-edge-cut / max-balance rule over the other
   accounts in the same transaction (§II-C, METIS bullet); HASH
   overrides it with the hash rule.  The replay engine asks once per
   transaction bucket (:meth:`place_new_vertices`), in dense indices of
   the assignment's numbering.
2. *Should the system repartition now, and into what?*
   (:meth:`maybe_repartition`) — called once per metric window with a
   :class:`ReplayContext`; returning a mapping triggers a
   repartitioning (vertices absent from the mapping keep their shard).

The replay engine owns all bookkeeping (assignment, metrics, move
counting); methods are pure decision logic, which keeps each of the
paper's five methods to a page.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import random
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from repro import kernels
from repro.core.assignment import ShardAssignment
from repro.core.placement import min_cut_shard, place_by_min_cut
from repro.graph.builder import build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import WeightedDiGraph
from repro.kernels import StreamState


@dataclasses.dataclass
class ReplayContext:
    """Everything a method may look at when making decisions.

    Attributes:
        now: end timestamp of the window just processed.
        k: number of shards.
        assignment: the live assignment (methods must not mutate it;
            they return proposed mappings instead).
        graph: the cumulative blockchain graph of rows
            ``[0, log_hi)`` (built on first access).
        period_graph: graph of the rows since the last repartitioning,
            ``[log_period_start, log_hi)`` (built on first access).
        last_repartition_ts: when the last repartitioning happened
            (genesis if never).
        window_dynamic_edge_cut: dynamic edge-cut of the window just
            processed (TR-METIS trigger input).
        window_dynamic_balance: dynamic balance of the window just
            processed (TR-METIS trigger input).
        rng: the method's own seeded RNG.
        columnar_log: the :class:`ColumnarLog` the replay streams (the
            engine interns every input into one).  Its rows are the
            only form of the log a method sees: the window's rows are
            ``columnar_log[log_window_start:log_hi]``, the period's
            (the R-METIS / TR-METIS / KL input)
            ``columnar_log[log_period_start:log_hi]``, and methods that
            consume dense vertex indices (warm-started METIS, the KL
            bridge) read its columns over those ranges directly.
        log_hi: rows ``[0, log_hi)`` of ``columnar_log`` are exactly
            the interactions replayed so far.
        log_window_start: first row of the window just processed.
        log_period_start: first row of the current repartition period.
        stream: the engine's :class:`~repro.kernels.StreamState`, the
            dense cumulative graph cold METIS partitions.  The engine
            keeps growing it, so it describes rows ``[0, log_hi)`` only
            during the ``maybe_repartition`` call this context is
            passed to; ``graph`` stays valid after it.
        window_graphs: the graphs of the window just processed, shared
            by every method's context of that window (see
            :meth:`window_graph`).  The engine makes one dict per
            window and drops it when the window closes; a hand-built
            context gets an empty one of its own.
    """

    now: float
    k: int
    assignment: ShardAssignment
    last_repartition_ts: float
    window_dynamic_edge_cut: float
    window_dynamic_balance: float
    rng: random.Random
    columnar_log: ColumnarLog
    log_hi: int
    log_window_start: int
    log_period_start: int
    stream: StreamState
    window_graphs: Dict[Hashable, Any] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)

    def window_graph(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, once per ``key`` per window.

        Every method that partitions the same rows in one window reads
        one graph object: cold METIS the stream state's CSR, cold
        R-METIS/TR-METIS and KL their period CSRs, keyed by row range.
        Bisections are memoised on the graph they split
        (:mod:`repro.metis.bisect`), so the shard counts of one method
        that repartition together with one seed share them.  ``key``
        must name everything ``build`` reads besides the window.
        """
        graphs = self.window_graphs
        if key not in graphs:
            graphs[key] = build()
        return graphs[key]

    def period_batch(self) -> tuple:
        """The ``graph_batch`` aggregate of rows ``[log_period_start,
        log_hi)``: one kernel call per row range per window, read by
        KL's activity-weighted period CSR and by the unit-weighted one
        cold R-METIS/TR-METIS partition."""
        lo, hi = self.log_period_start, self.log_hi
        log = self.columnar_log
        return self.window_graph(("graph_batch", lo, hi), lambda: (
            kernels.active().graph_batch(
                log.timestamps(), log.src_indices(), log.dst_indices(),
                log.src_kind_codes(), log.dst_kind_codes(), lo, hi)))

    @functools.cached_property
    def graph(self) -> WeightedDiGraph:
        """Cumulative graph of the rows replayed so far, aggregated by
        the batch kernels from rows ``[0, log_hi)`` of ``columnar_log``."""
        return build_graph_columnar(self.columnar_log, 0, self.log_hi)

    @functools.cached_property
    def period_graph(self) -> WeightedDiGraph:
        """Reduced graph of interactions since the last repartitioning,
        aggregated by the batch kernels from rows
        ``[log_period_start, log_hi)`` of ``columnar_log``."""
        return build_graph_columnar(
            self.columnar_log, self.log_period_start, self.log_hi)

    @property
    def elapsed_since_repartition(self) -> float:
        return self.now - self.last_repartition_ts


@dataclasses.dataclass(frozen=True)
class RepartitionEvent:
    """One repartitioning, as recorded by the replay engine."""

    ts: float
    moves: int
    reassigned: int          # vertices covered by the method's proposal
    reason: str = "periodic"


class PartitionMethod(abc.ABC):
    """Base class of the five methods.

    Subclasses set :attr:`name` and implement :meth:`maybe_repartition`;
    HASH and FENNEL additionally override :meth:`place_vertex` and
    :meth:`place_new_vertices`.
    """

    #: Short method name used in figures and the registry.
    name: str = "abstract"

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.rng = random.Random(seed)
        # reused by the default batch placement path so the min-cut
        # rule does not allocate an affinity map per vertex
        self._mincut_scratch: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def begin_replay(self) -> None:
        """Hook called by the replay engine at the start of each run.

        Methods that accumulate per-replay state beyond their RNG (the
        warm-started METIS variants keep an incremental graph builder,
        a coarsening-ladder cache and the previous assignment) override
        this to drop it, so a method instance reused across engines
        never warm-starts one replay from another's state.  The base
        implementation is a no-op.
        """

    def place_vertex(
        self,
        vertex: int,
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> int:
        """Shard for a vertex appearing for the first time (raw ids).

        ``tx_endpoints`` are all accounts involved in the transaction
        that introduced the vertex.  The default implements the paper's
        rule: pick the shard that minimises edge-cuts; ties maximise
        balance.
        """
        return place_by_min_cut(vertex, tx_endpoints, assignment)

    def place_new_vertices(
        self,
        vertices: Sequence[int],
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> None:
        """Place every not-yet-assigned vertex of one transaction bucket.

        The replay engine calls this with the bucket's first-seen
        vertices in appearance order and the src/dst of each of its
        rows, all as *dense indices* of ``assignment``'s numbering
        (the engine numbers every assignment like its log).  Contract:
        placements happen sequentially in the given order, and
        placement rules may read the assignment's shards and per-shard
        vertex *counts* but never the activity weights (the engine
        folds those in separately after placement).  The default
        places by the min-cut rule on the dense indices, with a reused
        scratch map; a subclass that overrides only :meth:`place_vertex`
        gets raw ids there.
        """
        shards = assignment.shards
        if type(self).place_vertex is PartitionMethod.place_vertex:
            scratch = self._mincut_scratch
            for v in vertices:
                if shards[v] < 0:
                    assignment.place(
                        v, min_cut_shard(v, tx_endpoints, assignment, scratch))
        else:
            ids = assignment.ids
            raw_endpoints = [ids[e] for e in tx_endpoints]
            for v in vertices:
                if shards[v] < 0:
                    assignment.place(
                        v, self.place_vertex(ids[v], raw_endpoints, assignment))

    @abc.abstractmethod
    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        """Return a vertex → shard mapping to repartition, or None.

        The mapping need not cover every vertex: uncovered vertices keep
        their current shard (this is how R-METIS leaves dormant
        vertices alone).
        """

    def describe(self) -> str:
        """One-line human description, used by the experiment CLI."""
        return f"{self.name} (k={self.k}, seed={self.seed})"
