"""Method 4 — R-METIS, the reduced-graph variant (§II-C).

"This graph contains all accounts, contracts, and their interactions
within a fixed window of time (two weeks), which starts at the last
(re)partitioning."  Only vertices *active* in the window are
repartitioned; dormant vertices — including the attack-period dummies —
keep their shard and stop distorting the balance objective, which is
why the paper reports a much better dynamic balance than full METIS,
and far fewer moves ("because they use a smaller graph").

The paper's Figs. 4–5 label this method **P-METIS** (periodic METIS on
the reduced graph); the registry accepts both names.

A cold run partitions the period's graph with unit vertex weights,
collapsed to CSR by :func:`~repro.metis.graph.period_csr` straight from
the log's rows (no ``WeightedDiGraph``).  The replay builds it once per
window and row range for every method that reads it, from the
``graph_batch`` aggregate KL reads too
(:meth:`~repro.core.base.ReplayContext.window_graph`); cells whose
periods start at the same row and whose ``run`` counters agree share
their bisections through the graph's memo (:mod:`repro.metis.bisect`),
as cold METIS's do.  A period starts and a run is counted only when a
cell repartitions, and a period graph with fewer than k vertices
repartitions nothing, so over a long history the k-cells drift apart
as cold METIS's do.  On ``--scale small`` (24 h windows), P-METIS's
k=2, 4 and 8 cells never all three repartition in one window; TR-METIS's
do so in 12 of their 87 repartition windows, with one run number, and
38 of its 411 bisections are served from the memo.

Warm mode (``warm=True``, off by default): the reduced window graph is
built straight from the dense index columns of the replay's
:class:`~repro.graph.columnar.ColumnarLog`
(:meth:`~repro.metis.graph.CSRGraph.from_columnar` over the period's
row range — no ``Interaction`` boxing, no ``WeightedDiGraph``) and the
partitioner warm-starts from the *live* assignment, so window vertices
tend to keep their current shard and only boundary refinement runs.
The coarsening ladder cache is **not** used here (successive windows
are different graphs, not grown versions of one graph, so a cached
hierarchy would not transfer), and there is no growth-threshold knob
either: every window vertex was placed by the replay before the
repartition fires, so the warm projection always covers the whole
window graph.  The same shard-relabeling caveat as warm full-METIS
applies — warm runs inherit labels, cold runs relabel freely, so their
move counts measure different things.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.base import PartitionMethod, ReplayContext
from repro.graph.snapshot import REPARTITION_PERIOD
from repro.metis import CSRGraph, part_graph
from repro.metis.graph import period_csr


class RMetisPartitioner(PartitionMethod):
    name = "r-metis"

    def __init__(
        self,
        k: int,
        seed: int = 0,
        period: float = REPARTITION_PERIOD,
        ubfactor: float = 1.05,
        ntrials: int = 4,
        warm: bool = False,
    ):
        super().__init__(k, seed)
        self.period = period
        self.ubfactor = ubfactor
        self.ntrials = ntrials
        self.warm = warm
        self._run = 0

    def begin_replay(self) -> None:
        """Rewind the run counter so a reused instance derives the same
        part_graph seed sequence every replay (no-op when fresh)."""
        self._run = 0

    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        if ctx.elapsed_since_repartition < self.period:
            return None
        return self.partition_window(ctx)

    def partition_window(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        """Partition the window graph; shared with TR-METIS."""
        if self.warm:
            return self._partition_window_warm(ctx)
        lo, hi = ctx.log_period_start, ctx.log_hi
        window = ctx.window_graph(("period", lo, hi), lambda: period_csr(
            ctx.columnar_log, lo, hi, batch=ctx.period_batch()))
        if window.num_vertices < self.k:
            return None
        self._run += 1
        result = part_graph(
            window,
            self.k,
            seed=self.seed * 10_007 + self._run,
            ubfactor=self.ubfactor,
            ntrials=self.ntrials,
        )
        return result.assignment

    def _partition_window_warm(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        csr = CSRGraph.from_columnar(
            ctx.columnar_log, start=ctx.log_period_start, stop=ctx.log_hi,
            vertex_weights="unit",
        )
        if csr.num_vertices < self.k:
            return None
        assert csr.orig_ids is not None
        shard_of = ctx.assignment.shard_of
        warm_start = {}
        for vid in csr.orig_ids:
            s = shard_of(vid)
            if s is not None:
                warm_start[vid] = s
        self._run += 1
        result = part_graph(
            csr,
            self.k,
            seed=self.seed * 10_007 + self._run,
            ubfactor=self.ubfactor,
            ntrials=self.ntrials,
            warm_start=warm_start or None,
        )
        return result.assignment
