"""The benchmark's workloads: one fixed sweep spec each, only the seed varies.

Each workload cuts one of the repo's named workload configs down (fewer
transactions over the first part of the study's time span) so a whole
sweep, every cell cold, takes one to three seconds on a 2-core machine
and one benchmark run can repeat it several times.  The cut changes the
mix of work, so the shares below are what the traced run measured on
these sizes (self time over the sweep, seeds 42 and 7), not the profile
of the full-size grids:

``paper-cold``
    The paper's five methods with their cold defaults at 24 h windows
    (~1.3k rows, 111 windows, 15 cells per log).  Cold ``part_graph``
    dominates: ``metis.*`` holds ~45% of the sweep, most of it FM
    refinement and the initial partition, and the refinement kernels
    it calls another ~15%; serialization and store writes ~15%.  How
    much refinement a log needs varies with its seed (the sweep of one
    log takes up to 30% longer than another's), so a round sweeps six
    independent logs, which narrows that spread between seeds.
``warm-mixed``
    Six methods including the warm-started METIS family at the paper's
    4 h window (~16k rows, ~800 windows, 18 cells).  A broad mix:
    serialization and store writes ~35%, engine self time and window
    accounting ~20%, the KL gather and CSR-building kernels ~15%, warm
    ``part_graph`` ~10%, placement ~6%.  Not listed in BENCHMARK.json:
    its timings (the resume above all) spread across runs by more than
    the benchmark's bounds on a shared host, so it is run by hand.
``stream-exec``
    Placement-only methods at 1 h windows with the 2PC execution axis
    (~11k rows in ~1.3k windows, 8 cells).  The sharding simulator is
    the largest layer (~40%), then serialization (~35% with the store
    writes) and per-window engine work; no partitioner runs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    base_scale: str            #: WorkloadConfig factory the config scales
    transactions: int          #: total_transactions of the scaled config
    span: float                #: fraction of the base config's time span
    methods: Tuple[str, ...]
    ks: Tuple[int, ...]
    window_hours: float
    execution: Optional[str] = None
    logs: int = 1              #: independent logs swept per round

    def config(self, seed: int, index: int = 0):
        """The generator config of log ``index`` for ``seed`` (the only varying input).

        Log ``index`` is generated from seed ``seed * logs + index``, so
        the logs of one seed are distinct and no two seeds share one.
        """
        from repro.ethereum.workload import WorkloadConfig

        base = getattr(WorkloadConfig, self.base_scale)(seed * self.logs + index)
        return dataclasses.replace(
            base,
            total_transactions=self.transactions,
            end_ts=base.start_ts + (base.end_ts - base.start_ts) * self.span,
        )

    def spec(self, trace_path: str):
        """The sweep over the exported trace (what ``sweep --source`` runs)."""
        from repro.experiments.spec import ExperimentSpec

        return ExperimentSpec(
            source=trace_path,
            methods=self.methods,
            ks=self.ks,
            window_hours=self.window_hours,
            execution=self.execution,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-cold",
            base_scale="small",
            transactions=1000,
            span=0.125,
            methods=("hash", "kl", "metis", "p-metis", "tr-metis"),
            ks=(2, 4, 8),
            window_hours=24.0,
            logs=6,
        ),
        Workload(
            name="warm-mixed",
            base_scale="medium",
            transactions=12000,
            span=0.15,
            methods=(
                "hash", "fennel", "kl", "metis?warm=true",
                "p-metis?warm=true", "tr-metis?warm=true",
            ),
            ks=(2, 4, 8),
            window_hours=4.0,
        ),
        Workload(
            name="stream-exec",
            base_scale="medium",
            transactions=8000,
            span=0.06,
            methods=("hash", "fennel"),
            ks=(2, 4, 8, 16),
            window_hours=1.0,
            execution="mode=2pc",
        ),
    )
}
