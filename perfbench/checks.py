"""Output checks: every cell against a naive recount from the raw log.

The recount never touches the replay engine, the kernels or the result
store.  It walks the generator's interaction rows with plain loops and
compares what it finds with each cell of a :class:`ResultSet`:

* every streamed vertex is assigned, to a shard in ``0..k-1``;
* the series has one point per metric window, starting where the
  engine's windows start, and each point counts the rows of its window;
* the last point's ``static_edge_cut`` equals the cut over the distinct
  directed (non-loop) edges divided by their count;
* the last point's ``static_balance`` equals the recounted vertex
  balance ``max(count) * k / vertices``;
* every point's ``cumulative_moves`` equals the moves of the events up
  to that window's end, so the last one is the sum of all event moves;
* with an execution axis, the throughput report counts every
  transaction once, and its multi-shard count equals the number of
  transactions whose endpoints span more than one shard.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple


class LogFacts:
    """What the checks need from the raw rows, computed once per log."""

    def __init__(self, rows: Sequence) -> None:
        if not rows:
            raise ValueError("the checks need a non-empty log")
        self.rows = len(rows)
        self.timestamps: List[float] = [r.timestamp for r in rows]
        vertices: Set[int] = set()
        edges: Set[Tuple[int, int]] = set()
        tx_endpoints: List[Set[int]] = []
        current = None
        for r in rows:
            vertices.add(r.src)
            vertices.add(r.dst)
            if r.src != r.dst:
                edges.add((r.src, r.dst))
            if current is None or r.tx_id != current:
                current = r.tx_id
                tx_endpoints.append(set())
            tx_endpoints[-1].update((r.src, r.dst))
        self.vertices = vertices
        self.edges = sorted(edges)
        self.tx_endpoints = tx_endpoints

    def window_starts(self, window: float) -> List[float]:
        """Start of every metric window, stepped like a stopwatch."""
        end = self.timestamps[-1] + 1.0
        starts = []
        start = self.timestamps[0]
        while start < end:
            starts.append(start)
            start = start + window
        return starts


def check_cell(cell, facts: LogFacts, window: float) -> List[str]:
    """Problems found in one :class:`CellResult`; empty when it passes."""
    k = cell.key.k
    problems: List[str] = []
    assignment: Dict[int, int] = cell.assignment

    missing = facts.vertices.difference(assignment)
    extra = set(assignment).difference(facts.vertices)
    if missing or extra:
        problems.append(
            f"assignment covers {len(assignment)} vertices: "
            f"{len(missing)} streamed vertices missing, {len(extra)} unknown"
        )
    out_of_range = sum(1 for s in assignment.values() if not 0 <= s < k)
    if out_of_range:
        problems.append(f"{out_of_range} vertices on a shard outside 0..{k - 1}")

    points = cell.series.points
    starts = facts.window_starts(window)
    if len(points) != len(starts):
        problems.append(f"{len(points)} series points for {len(starts)} windows")
        return problems
    ts = facts.timestamps
    events = sorted(cell.events, key=lambda e: e.ts)
    row = 0
    ev = 0
    moves = 0
    for point, start in zip(points, starts):
        end = start + window
        first = row
        while row < len(ts) and ts[row] < end:
            row += 1
        while ev < len(events) and events[ev].ts <= end:
            moves += events[ev].moves
            ev += 1
        if point.ts != start:
            problems.append(f"point at ts={point.ts!r}, window starts {start!r}")
            break
        if point.interactions != row - first:
            problems.append(
                f"window {start!r}: {point.interactions} rows reported, "
                f"{row - first} in the log"
            )
            break
        if point.cumulative_moves != moves:
            problems.append(
                f"window {start!r}: cumulative_moves {point.cumulative_moves}, "
                f"events sum to {moves}"
            )
            break

    if missing or out_of_range:
        return problems
    last = points[-1]
    cut = sum(1 for s, d in facts.edges if assignment[s] != assignment[d])
    expected_cut = cut / len(facts.edges) if facts.edges else 0.0
    if last.static_edge_cut != expected_cut:
        problems.append(
            f"static_edge_cut {last.static_edge_cut!r}, recount "
            f"{cut}/{len(facts.edges)} = {expected_cut!r}"
        )
    counts = [0] * k
    for s in assignment.values():
        counts[s] += 1
    expected_balance = max(counts) * k / len(assignment)
    if last.static_balance != expected_balance:
        problems.append(
            f"static_balance {last.static_balance!r}, recount {expected_balance!r}"
        )

    report = cell.execution
    if report is not None:
        n_tx = len(facts.tx_endpoints)
        multi = sum(
            1 for eps in facts.tx_endpoints
            if len({assignment[v] for v in eps}) > 1
        )
        if report.k != k:
            problems.append(f"execution report for k={report.k}, cell k={k}")
        if report.completed != n_tx:
            problems.append(
                f"execution completed {report.completed} of {n_tx} transactions"
            )
        if report.single_shard + report.multi_shard != n_tx:
            problems.append(
                f"execution dispatched {report.single_shard + report.multi_shard}"
                f" of {n_tx} transactions"
            )
        if report.multi_shard != multi:
            problems.append(
                f"execution multi_shard {report.multi_shard}, recount {multi}"
            )
    return problems


def check_result_set(rs, facts: LogFacts) -> Dict[str, List[str]]:
    """Cell label -> problems, for every cell that fails a check."""
    window = rs.spec.window_seconds
    failed = {}
    for cell in rs:
        problems = check_cell(cell, facts, window)
        if problems:
            failed[cell.key.label] = problems
    return failed
