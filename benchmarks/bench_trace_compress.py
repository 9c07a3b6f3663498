"""TRACE-COMPRESS — rctrace v3 size/speed gates vs v2 and regenerate.

The point of the compressed v3 format: Ethereum-scale traces should be
cheap to *store and ship* without giving back the replay-speed win of
the binary data layer.  Measured here on the same logical log:

* file size — v2 (fixed-width mmap layout) vs v3 (delta/varint
  columns + per-section zlib framing), plus the chunked streaming
  writer's output (asserted byte-identical to the in-memory writer);
* open time — mmap-open of v2, streaming decode of v3 (with and
  without the verification pass), against regenerate;
* equivalence — a two-method sweep from the v3 trace is cell-for-cell
  identical to the same sweep from v2 and from the synthetic source,
  including the jobs=2 decode-per-worker path.

Acceptance gates: v3 <= 0.6x the v2 bytes, and v3 open >= 10x faster
than regenerate.  Artifact: ``benchmarks/out/trace_compress.txt``.
"""

import time

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.render import ascii_table
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.source import config_for_scale
from repro.ethereum.workload import generate_history
from repro.graph.io import ChunkedTraceWriter, load_columnar, write_columnar

SWEEP_METHODS = ("hash", "fennel")
SWEEP_KS = (2, 4)
RATIO_GATE = 0.6
OPEN_GATE = 10.0


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.benchmark(group="trace-compress")
def test_v3_compression_and_open_time(bench_scale, out_dir, tmp_path):
    seed = 42
    cfg = config_for_scale(bench_scale, seed)

    t0 = time.perf_counter()
    workload = generate_history(cfg)
    log = workload.builder.log
    t_generate = time.perf_counter() - t0

    v2_path = tmp_path / "trace_v2.rct"
    v3_path = tmp_path / "trace_v3.rct"
    chunked_path = tmp_path / "trace_v3_chunked.rct"
    t_write_v2, _ = _best_of(lambda: write_columnar(log, v2_path, version=2), 1)
    t_write_v3, _ = _best_of(lambda: write_columnar(log, v3_path, version=3), 1)

    # the bounded-memory spill writer must emit the identical file
    with ChunkedTraceWriter(chunked_path, version=3, chunk_rows=2048) as w:
        w.extend(log)
    assert chunked_path.read_bytes() == v3_path.read_bytes()

    v2_bytes = v2_path.stat().st_size
    v3_bytes = v3_path.stat().st_size
    ratio = v3_bytes / v2_bytes

    t_v2, v2_log = _best_of(lambda: load_columnar(v2_path))
    t_v3, v3_log = _best_of(lambda: load_columnar(v3_path))
    t_v3_raw, _ = _best_of(lambda: load_columnar(v3_path, verify=False))
    assert v2_log.identical(log)
    assert v3_log.identical(log)

    # --- equivalence: paper-grid cells from v3 == v2 == synthetic ---
    spec_kwargs = dict(methods=SWEEP_METHODS, ks=SWEEP_KS, window_hours=24.0)
    rs_synth = run_experiment(
        ExperimentSpec(scale=bench_scale, workload_seed=seed, **spec_kwargs),
        workload=workload,
    )
    rs_v2 = run_experiment(ExperimentSpec(source=str(v2_path), **spec_kwargs))
    rs_v3 = run_experiment(ExperimentSpec(source=str(v3_path), **spec_kwargs))
    rs_v3_par = run_experiment(
        ExperimentSpec(source=str(v3_path), **spec_kwargs), jobs=2
    )
    for key in rs_synth.keys():
        assert rs_v2.cell(key) == rs_synth.cell(key)
        assert rs_v3.cell(key) == rs_synth.cell(key)
        assert rs_v3_par.cell(key) == rs_synth.cell(key)

    speedup_v3 = t_generate / t_v3 if t_v3 else float("inf")
    size_rows = [
        ("binary v2 (fixed-width)", f"{v2_bytes:10d}", "1.000x",
         f"{t_write_v2 * 1e3:9.1f}"),
        ("binary v3 (delta/varint+zlib)", f"{v3_bytes:10d}",
         f"{ratio:.3f}x", f"{t_write_v3 * 1e3:9.1f}"),
        ("binary v3 (chunked writer)", f"{chunked_path.stat().st_size:10d}",
         f"{ratio:.3f}x", "byte-identical"),
    ]
    open_rows = [
        ("regenerate (EVM replay)", f"{t_generate * 1e3:9.1f}", "1.0x"),
        ("binary v2 mmap open (verify)", f"{t_v2 * 1e3:9.1f}",
         f"{t_generate / t_v2:.0f}x"),
        ("binary v3 decode (verify)", f"{t_v3 * 1e3:9.1f}",
         f"{speedup_v3:.0f}x"),
        ("binary v3 decode (no verify)", f"{t_v3_raw * 1e3:9.1f}",
         f"{t_generate / t_v3_raw:.0f}x"),
    ]
    write_artifact(
        out_dir, "trace_compress.txt",
        ascii_table(
            ["trace format", "bytes", "vs v2", "write (ms)"],
            size_rows,
            title=(
                f"TRACE-COMPRESS — file size "
                f"(scale={bench_scale}: {len(log)} interactions, "
                f"{log.num_vertices} vertices; gate: v3 <= {RATIO_GATE}x v2)"
            ),
        )
        + "\n\n"
        + ascii_table(
            ["opening the log", "open (ms)", "vs regenerate"],
            open_rows,
            title=(
                f"open time, best of 3 (gate: v3 >= {OPEN_GATE:.0f}x "
                f"regenerate); {len(rs_synth.keys())}-cell sweeps from "
                "v3 == v2 == synthetic, jobs in {1, 2}"
            ),
        ),
    )

    assert ratio <= RATIO_GATE, (
        f"v3 is {ratio:.3f}x the v2 bytes ({v3_bytes} vs {v2_bytes}); "
        f"gate is {RATIO_GATE}x"
    )
    assert speedup_v3 >= OPEN_GATE, (
        f"v3 open only {speedup_v3:.1f}x faster than regenerate "
        f"({t_v3 * 1e3:.1f}ms vs {t_generate * 1e3:.1f}ms)"
    )
