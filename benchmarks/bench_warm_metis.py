"""WARM-METIS — cold vs warm-started periodic repartitioning.

The paper's Method 3 repartitions the entire cumulative graph every two
weeks; after the single-pass replay engine, that periodic full-graph
partitioning dominates method-comparison wall-clock (~95% of the paper
five-method set).  This benchmark measures the warm-start pipeline that
attacks it, period by period over the benchmark timeline:

* **cold** — what every period paid before: build the cumulative CSR
  graph from scratch and run the full multilevel partitioner;
* **warm** — the incremental pipeline: extend the
  :class:`~repro.metis.graph.ColumnarCSRBuilder` by the new rows only,
  project the previous period's assignment onto the grown graph and
  boundary-refine (``part_graph(warm_start=...)``), with a
  :class:`~repro.metis.coarsen.LadderCache` amortising cold restarts.

Correctness is asserted unconditionally: ``warm_start=None`` stays
bit-identical to the plain cold call, warm assignments cover every
vertex within the balance tolerance, and quality (edge cut) stays in
the cold path's ballpark.  Timings are measured, not asserted (the
timing harness is ``perfbench/``); the numbers land in
``benchmarks/out/warm_metis.txt``.
"""

import time

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.render import ascii_table
from repro.graph.builder import build_graph
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import REPARTITION_PERIOD
from repro.graph.undirected import collapse_to_undirected
from repro.metis import ColumnarCSRBuilder, CSRGraph, LadderCache, part_graph

K = 4
SEED = 7


def _period_bounds(clog: ColumnarLog):
    """Row index of each period end, paper cadence (two weeks)."""
    bounds = []
    t = clog.first_timestamp + REPARTITION_PERIOD
    end = clog.last_timestamp + 1.0
    while t < end + REPARTITION_PERIOD:
        hi = clog.index_at(min(t, end))
        if bounds and hi == bounds[-1]:
            if t >= end:
                break
            t += REPARTITION_PERIOD
            continue
        if hi > 0:
            bounds.append(hi)
        if t >= end:
            break
        t += REPARTITION_PERIOD
    return bounds


@pytest.mark.benchmark(group="warm-metis")
def test_warm_repartitioning_beats_cold(runner, out_dir):
    clog = runner.workload.builder.log
    bounds = _period_bounds(clog)
    assert len(bounds) >= 3, "benchmark timeline too short for periods"

    # cold: every period rebuilds the cumulative graph and partitions
    # from scratch (the pre-warm-start cost model)
    cold_times, cold_results = [], []
    for hi in bounds:
        t0 = time.perf_counter()
        csr = CSRGraph.from_columnar(clog, 0, hi)
        res = part_graph(csr, K, seed=SEED) if csr.num_vertices >= K else None
        cold_times.append(time.perf_counter() - t0)
        cold_results.append(res)

    # cold-path bit-identity: warm_start=None must change nothing
    final_csr = CSRGraph.from_columnar(clog, 0, bounds[-1])
    ref = part_graph(final_csr, K, seed=SEED)
    ref_none = part_graph(final_csr, K, seed=SEED, warm_start=None)
    assert ref.assignment == ref_none.assignment
    assert ref.edge_cut == ref_none.edge_cut

    # warm: incremental CSR accumulation + warm-started partitioning
    builder = ColumnarCSRBuilder(clog)
    cache = LadderCache()
    prev = None
    warm_times, warm_results = [], []
    for hi in bounds:
        t0 = time.perf_counter()
        builder.advance(hi)
        res = None
        if builder.num_vertices >= K:
            csr = builder.snapshot()
            res = part_graph(
                csr, K, seed=SEED, warm_start=prev, warm_cache=cache
            )
            prev = res.assignment
        warm_times.append(time.perf_counter() - t0)
        warm_results.append(res)

    rows = []
    speedups = []
    for i, hi in enumerate(bounds):
        c, w = cold_results[i], warm_results[i]
        if c is None or w is None:
            continue
        assert set(w.assignment) == set(c.assignment)  # same vertex set
        assert all(0 <= p < K for p in w.assignment.values())
        # tolerance ballpark (ubfactor + refine slack), floored by the
        # integer granularity bound on tiny graphs (ceil(n/k) per part)
        n = len(w.assignment)
        granularity = (-(-n // K)) * K / n
        assert w.balance <= max(1.5, granularity)
        speedup = cold_times[i] / warm_times[i] if warm_times[i] > 0 else float("inf")
        if i >= 1:
            speedups.append(speedup)
        if i % 8 == 0 or i == len(bounds) - 1:
            rows.append((
                i + 1, len(c.assignment),
                f"{cold_times[i]*1e3:.1f}", f"{warm_times[i]*1e3:.1f}",
                f"{speedup:.1f}x",
                c.edge_cut, w.edge_cut,
                f"{c.balance:.3f}", f"{w.balance:.3f}",
                "warm" if w.warm else "cold",
            ))

    mean_speedup = sum(speedups) / len(speedups)
    total_cold = sum(cold_times)
    total_warm = sum(warm_times)

    # quality guard: warm cuts must stay in the cold ballpark overall
    cut_ratios = [
        w.edge_cut / c.edge_cut
        for c, w in zip(cold_results, warm_results)
        if c is not None and w is not None and c.edge_cut > 0
    ]
    mean_cut_ratio = sum(cut_ratios) / len(cut_ratios) if cut_ratios else 1.0
    assert mean_cut_ratio < 1.5, f"warm cuts degraded: mean ratio {mean_cut_ratio:.2f}"

    table = ascii_table(
        ["period", "|V|", "cold (ms)", "warm (ms)", "speedup",
         "cold cut", "warm cut", "cold bal", "warm bal", "path"],
        rows,
        title=(
            "WARM-METIS — periodic full-graph repartitioning, "
            f"k={K}, {len(bounds)} periods (every 8th shown)"
        ),
    )
    summary = (
        f"\ntotals: cold {total_cold:.3f}s, warm {total_warm:.3f}s "
        f"({total_cold / total_warm:.1f}x);  "
        f"mean per-period speedup after period 1: {mean_speedup:.1f}x;  "
        f"mean warm/cold cut ratio: {mean_cut_ratio:.2f}"
    )
    write_artifact(out_dir, "warm_metis.txt", table + summary)


@pytest.mark.benchmark(group="warm-metis")
def test_columnar_csr_beats_digraph_rebuild(runner, out_dir):
    """The dense-index CSR build vs the digraph→collapse→CSR pipeline."""
    clog = runner.workload.builder.log
    rows = clog.to_interactions()

    t0 = time.perf_counter()
    g = build_graph(rows)
    und = collapse_to_undirected(g, unit_vertex_weights=True)
    csr_old = CSRGraph.from_undirected(und)
    t_digraph = time.perf_counter() - t0

    t0 = time.perf_counter()
    csr_new = CSRGraph.from_columnar(clog)
    t_columnar = time.perf_counter() - t0

    # same graph up to vertex renumbering: compare edge-weight multisets
    # and vertex weights keyed by original ids
    def as_dicts(csr):
        ids = csr.orig_ids
        edges = {}
        for v in range(csr.num_vertices):
            for i in range(csr.xadj[v], csr.xadj[v + 1]):
                u = csr.adjncy[i]
                key = (min(ids[v], ids[u]), max(ids[v], ids[u]))
                if key[0] != key[1]:
                    edges[key] = csr.adjwgt[i]
        vw = {ids[v]: csr.vwgt[v] for v in range(csr.num_vertices)}
        return edges, vw

    assert as_dicts(csr_old) == as_dicts(csr_new)

    table = ascii_table(
        ["pipeline", "seconds"],
        [
            ("build_graph + collapse + from_undirected", f"{t_digraph:.3f}"),
            ("CSRGraph.from_columnar (dense indices)", f"{t_columnar:.3f}"),
        ],
        title=(
            f"cumulative CSR build, |log|={len(clog)}, |V|={clog.num_vertices} "
            f"— {t_digraph / t_columnar:.1f}x"
        ),
    )
    write_artifact(out_dir, "warm_metis_csr_build.txt", table)
