"""Fig. 2 — a concrete subgraph around an early hub contract.

The paper's Fig. 2 shows accounts (full-line nodes), contracts
(dashed-line nodes) and weighted interaction edges from a September
2015 slice.  We reproduce the *construction*: build the early graph,
find a contract hub with both incoming activations and outgoing
transfers, extract its radius-2 ego subgraph and render it as an
adjacency listing with edge weights.

Also checked here: the paper's structural observation that "in the
complete graph, there is no contract without at least one incoming
edge" (every contract was activated or created by someone).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.ethereum.history import date_to_ts
from repro.ethereum.workload import WorkloadResult
from repro.graph.builder import build_graph_columnar
from repro.graph.digraph import VertexKind, WeightedDiGraph


@dataclasses.dataclass(frozen=True)
class SubgraphReport:
    center: int
    graph: WeightedDiGraph
    num_accounts: int
    num_contracts: int
    contracts_without_incoming: int


def compute_fig2(
    workload: WorkloadResult,
    cutoff_ts: Optional[float] = None,
    radius: int = 2,
) -> Optional[SubgraphReport]:
    """Ego subgraph around the busiest early contract (None if no
    contract exists before the cutoff)."""
    import datetime

    if cutoff_ts is None:
        cutoff_ts = date_to_ts(datetime.date(2015, 10, 1))
    log = workload.builder.log
    early = build_graph_columnar(log, 0, log.index_at(cutoff_ts))
    hub = None
    best = -1
    for v in early.vertices():
        if early.vertex_kind(v) is VertexKind.CONTRACT:
            score = early.in_degree(v) + early.out_degree(v)
            if score > best:
                best = score
                hub = v
    if hub is None:
        return None
    ego = early.ego_subgraph(hub, radius=radius)
    contracts = [v for v in ego.vertices() if ego.vertex_kind(v) is VertexKind.CONTRACT]
    orphans = sum(1 for c in contracts if ego.in_degree(c) == 0 and c != hub)
    return SubgraphReport(
        center=hub,
        graph=ego,
        num_accounts=ego.count_kind(VertexKind.ACCOUNT),
        num_contracts=len(contracts),
        contracts_without_incoming=orphans,
    )


def contracts_without_incoming(graph: WeightedDiGraph) -> int:
    """Count contracts with no incoming edge in the *full* graph (the
    paper asserts zero)."""
    return sum(
        1
        for v in graph.vertices()
        if graph.vertex_kind(v) is VertexKind.CONTRACT and graph.in_degree(v) == 0
    )


def render_fig2(report: SubgraphReport, max_edges: int = 40) -> str:
    g = report.graph
    lines = [
        f"Fig. 2 — ego subgraph around contract {report.center} "
        f"(radius 2, {g.num_vertices} vertices, {g.num_edges} edges)",
        f"accounts={report.num_accounts} contracts={report.num_contracts}",
        "",
    ]
    shown = 0
    for src, dst, w in sorted(g.edges(), key=lambda e: (-e[2], e[0], e[1])):
        src_k = "C" if g.vertex_kind(src) is VertexKind.CONTRACT else "A"
        dst_k = "C" if g.vertex_kind(dst) is VertexKind.CONTRACT else "A"
        lines.append(f"  {src_k}{src} -> {dst_k}{dst}  x{w}")
        shown += 1
        if shown >= max_edges:
            lines.append(f"  ... ({g.num_edges - shown} more edges)")
            break
    return "\n".join(lines)
