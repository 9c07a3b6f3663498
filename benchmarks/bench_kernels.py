"""KERNELS — per-kernel microloop gates + the paper-scale sweep.

Two claims are enforced here, matching the kernel layer's contract
(``src/repro/kernels``):

* **micro gates** — the numpy backend has its own form of a kernel
  only when it lists the kernel in its ``ACCELERATED`` set, and each
  such form must beat the ``pure`` reference by >= 3x on its microloop
  over this run's workload columns: whole-array recounts
  (``static_cut_count``, ``cut_value``, ``max_weighted_degree``,
  ``max_index``) and whole-boundary / whole-graph refinement batches
  (``conn_matrix``, ``kl_proposals``).  Every other kernel name is the
  pure object itself and is listed as ``= pure``: the per-metric-window
  kernels run on windows of a few dozen rows, where numpy's per-call
  overhead loses to the plain loop.

* **paper-scale sweep** — the five-method fig5 grid
  (``PAPER_ORDER`` x k in {2, 4, 8}, warm METIS family) replayed from
  an exported v3 trace must produce byte-identical ``ResultSet``
  output under every installed backend, and the per-method wall-clock
  split lands in ``benchmarks/out/paper_scale_sweep.txt``.

Timing gates follow the house rule: asserted when the scale is
``medium``/``large`` (single-round small-scale timings on shared
runners are noise); the measured table is always written.
"""

import time
from array import array

import pytest

from benchmarks.conftest import write_artifact
from repro import kernels
from repro.analysis.render import ascii_table
from repro.experiments.run import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.graph.columnar import ColumnarLog
from repro.graph.io import write_columnar
from repro.kernels import StreamState, pure
from repro.metis.graph import CSRGraph

GATE = 3.0
SWEEP_METHODS = (
    "hash", "kl", "metis?warm=true", "p-metis?warm=true", "tr-metis?warm=true",
)
SWEEP_KS = (2, 4, 8)


def _gating(bench_scale: str) -> bool:
    return bench_scale in ("medium", "large")


def _best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _micro_loops(clog: ColumnarLog):
    """Kernel name -> zero-arg microloop, resolved per backend at call time.

    Each loop is the kernel's natural batch unit at this scale: the
    whole column range (what cold starts, recounts and snapshots pay)
    — the unit the ACCELERATED speedup claims are made on.
    """
    ts, src, dst = clog.timestamps(), clog.src_indices(), clog.dst_indices()
    tx = clog.tx_ids()
    sk, dk = clog.src_kind_codes(), clog.dst_kind_codes()
    n = len(clog)
    k = 4
    shard = array("i", [(7 * v) % k for v in range(clog.num_vertices)])

    with kernels.using_backend("pure"):
        kp = kernels.active()
        state = StreamState()
        batch = kp.window_pass(src, dst, tx, 0, n, state)
        xadj, adjncy, adjwgt, vwgt, _ = kp.csr_from_window(src, dst, 0, n, "unit")
    graph = CSRGraph(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt)
    part = [shard[v] for v in range(graph.num_vertices)]
    part_holes = list(part)
    for v in range(0, len(part_holes), 7):
        part_holes[v] = -1
    bisect = [p % 2 for p in part]
    with kernels.using_backend("pure"):
        boundary = kernels.active().boundary_list(graph, part)

    def acc_loop():
        acc = kernels.active().CSRAccumulator()
        acc.advance(src, dst, 0, n)
        return acc.snapshot("unit")

    kr = kernels.active  # resolved inside each lambda: current backend
    return {
        "window_pass": lambda: kr().window_pass(
            src, dst, tx, 0, n, StreamState()),
        "account_window": lambda: kr().account_window(
            src, dst, 0, n, batch.new_edges, shard, k),
        "static_cut_count": lambda: kr().static_cut_count(
            state.esrc, state.edst, shard),
        "max_index": lambda: kr().max_index(src, dst, 0, n),
        "CSRAccumulator": acc_loop,
        "csr_from_window": lambda: kr().csr_from_window(src, dst, 0, n, "unit"),
        "graph_batch": lambda: kr().graph_batch(ts, src, dst, sk, dk, 0, n),
        "part_weights": lambda: kr().part_weights(graph, part, k),
        "boundary_list": lambda: kr().boundary_list(graph, part),
        "cut_value": lambda: kr().cut_value(graph, part),
        "unassigned_list": lambda: kr().unassigned_list(part_holes),
        # refinement batch kernels: boundary-row connectivity, FM seed
        # gains, whole-graph KL gather, FM gain bound
        "conn_matrix": lambda: kr().conn_matrix(graph, part, k, boundary),
        "gain_vector": lambda: kr().gain_vector(graph, bisect, boundary),
        "kl_proposals": lambda: kr().kl_proposals(graph, part, k, 1),
        "max_weighted_degree": lambda: kr().max_weighted_degree(graph),
    }


@pytest.mark.benchmark(group="kernels")
def test_kernel_micro_gates(runner, bench_scale, out_dir):
    clog = runner.workload.builder.log
    loops = _micro_loops(clog)
    backends = [b for b in kernels.available_backends() if b != "pure"]

    with kernels.using_backend("pure"):
        pure_times = {name: _best_of(fn) for name, fn in loops.items()}

    rows = []
    failures = []
    for backend in backends:
        with kernels.using_backend(backend) as module:
            claimed = getattr(module, "ACCELERATED", frozenset())
            for name, fn in loops.items():
                if getattr(module, name) is getattr(pure, name):
                    rows.append((name, backend, f"{pure_times[name] * 1e3:.2f}",
                                 "= pure", "", ""))
                    continue
                t = _best_of(fn)
                speedup = pure_times[name] / t if t > 0 else float("inf")
                gated = name in claimed
                rows.append((
                    name, backend,
                    f"{pure_times[name] * 1e3:.2f}", f"{t * 1e3:.2f}",
                    f"{speedup:.2f}x", "yes" if gated else "",
                ))
                if gated and speedup < GATE:
                    failures.append(f"{backend}:{name} {speedup:.2f}x < {GATE}x")

    table = ascii_table(
        ("kernel", "backend", "pure ms", "backend ms", "speedup", ">=3x gate"),
        rows,
    )
    write_artifact(
        out_dir, "kernels_micro.txt",
        f"kernel microloops, scale={bench_scale}, rows={len(clog)}\n{table}",
    )
    if _gating(bench_scale):
        assert not failures, "; ".join(failures)


@pytest.mark.benchmark(group="kernels")
def test_paper_scale_sweep(runner, bench_scale, out_dir, tmp_path):
    """Five-method fig5 grid from an exported v3 trace, every backend.

    Byte-identity of the serialized ResultSet across backends is
    asserted unconditionally — it is the kernel layer's core contract.
    The artifact records the per-method wall-clock split and the
    per-backend grid totals.
    """
    trace = tmp_path / f"sweep_{bench_scale}.rct"
    clog = runner.workload.builder.log
    write_columnar(clog, trace, version=3)
    spec = ExperimentSpec(
        methods=SWEEP_METHODS, ks=SWEEP_KS, window_hours=24.0,
        source=str(trace),
    )

    # grid totals: interleaved rounds + best-of + process CPU time,
    # because a single sequential wall-clock pass per backend cannot
    # resolve a ~20% backend gap on a shared runner (order effects and
    # scheduler noise are the same magnitude)
    backends = list(kernels.available_backends())
    dumps = {}
    totals = {}
    for rnd in range(2):
        for backend in backends if rnd % 2 == 0 else reversed(backends):
            with kernels.using_backend(backend):
                t0 = time.process_time()
                text = run_experiment(spec).dumps()
                elapsed = time.process_time() - t0
            dumps.setdefault(backend, text)
            totals[backend] = min(totals.get(backend, elapsed), elapsed)
    reference = dumps["pure"]
    for backend, text in dumps.items():
        assert text == reference, (
            f"ResultSet under {backend} diverges from pure — "
            "kernel bit-identity contract broken"
        )

    # per-method split (shared-stream pass per method, all ks at once)
    split = []
    for method in SWEEP_METHODS:
        single = ExperimentSpec(
            methods=(method,), ks=SWEEP_KS, window_hours=24.0,
            source=str(trace),
        )
        t0 = time.perf_counter()
        run_experiment(single)
        split.append((method, time.perf_counter() - t0))

    grid_cells = len(SWEEP_METHODS) * len(SWEEP_KS)
    lines = [
        f"paper-scale five-method sweep  (scale={bench_scale}, "
        f"rows={len(clog)}, v3 trace, k in {list(SWEEP_KS)}, "
        f"{grid_cells} cells, warm METIS)",
        "",
        "per-method wall-clock split (single-method pass over all ks):",
        ascii_table(
            ("method", "seconds", "share"),
            [
                (m, f"{s:.2f}", f"{100 * s / sum(s for _, s in split):.0f}%")
                for m, s in split
            ],
        ),
        "",
        "full-grid totals per kernel backend (best of 2 interleaved "
        "rounds,",
        "process CPU time; ResultSet byte-identical across all):",
        ascii_table(
            ("backend", "seconds", "vs pure"),
            [
                (b, f"{t:.2f}", f"{totals['pure'] / t:.2f}x")
                for b, t in totals.items()
            ],
        ),
        "",
        "note: numpy replaces only its ACCELERATED kernels (whole-array",
        "recounts, conn_matrix / kl_proposals refinement batches) and runs",
        "the pure object for every other kernel, so the backends differ by",
        "those kernels alone; the >=3x kernel speedups are enforced",
        "per-microloop — see kernels_micro.txt.  absolute seconds are",
        "machine-state dependent: compare backends within one run, not",
        "across recorded artifacts.",
    ]
    write_artifact(out_dir, "paper_scale_sweep.txt", "\n".join(lines))
