"""Fig. 1 — Ethereum graph evolution (vertices and edges over time).

The paper plots the cumulative number of vertices (accounts + smart
contracts) and edges (distinct interactions) per month from Aug 2015 to
Dec 2017 on a log axis, with fork landmarks.  Expected reproduced
shape: exponential growth to the attack, an order-of-magnitude jump in
the attack window, superlinear growth afterwards.
"""

from __future__ import annotations

import dataclasses
from typing import List, Set, Tuple

from repro.analysis.render import ascii_table, sparkline
from repro.ethereum.history import ATTACK_END, ATTACK_START, landmarks, month_label
from repro.ethereum.workload import WorkloadResult
from repro.graph.snapshot import DAY


@dataclasses.dataclass(frozen=True)
class GrowthPoint:
    ts: float
    label: str
    vertices: int
    edges: int
    interactions: int


def compute_fig1(workload: WorkloadResult, sample_days: float = 30.0) -> List[GrowthPoint]:
    """Cumulative graph size sampled every ``sample_days``.

    One pass over the log's columns: interning is in first-appearance
    order, so the number of distinct vertices after a row is that row's
    running maximum dense index + 1.
    """
    log = workload.builder.log
    if not log:
        return []
    points: List[GrowthPoint] = []
    step = sample_days * DAY
    seen_edges: Set[Tuple[int, int]] = set()
    max_index = -1
    interactions = 0

    def sample(ts: float) -> GrowthPoint:
        return GrowthPoint(
            ts=ts,
            label=month_label(ts),
            vertices=max_index + 1,
            edges=len(seen_edges),
            interactions=interactions,
        )

    next_sample = log.first_timestamp + step
    for ts, src, dst in zip(log.timestamps(), log.src_indices(), log.dst_indices()):
        while ts >= next_sample:
            points.append(sample(next_sample))
            next_sample += step
        max_index = max(max_index, src, dst)
        seen_edges.add((src, dst))
        interactions += 1
    points.append(sample(next_sample))
    return points


def attack_growth_factor(points: List[GrowthPoint]) -> float:
    """Vertex growth factor across the attack window (paper: ~10x)."""
    before = after = None
    for p in points:
        if p.ts <= ATTACK_START:
            before = p
        if after is None and p.ts >= ATTACK_END:
            after = p
    if before is None or after is None or before.vertices == 0:
        return float("nan")
    return after.vertices / before.vertices


def render_fig1(points: List[GrowthPoint]) -> str:
    rows = [
        (p.label, p.vertices, p.edges, p.interactions) for p in points
    ]
    out = [
        ascii_table(
            ["month", "# vertices", "# edges", "# interactions"],
            rows,
            title="Fig. 1 — Ethereum graph evolution (synthetic trace)",
        ),
        "",
        "vertices (log): " + sparkline([p.vertices for p in points], log=True),
        "edges    (log): " + sparkline([p.edges for p in points], log=True),
        "",
        f"attack-window vertex growth factor: {attack_growth_factor(points):.1f}x",
        "landmarks: " + ", ".join(l.label for l in landmarks()),
    ]
    return "\n".join(out)
