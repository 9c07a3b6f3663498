"""TRACE-IO — binary mmap load vs text parse vs regenerate.

The point of the rctrace v2 format: opening the workload should cost
an ``mmap`` plus verification, not an EVM-lite re-execution of the
whole history (regenerate) or a float-parse of every line (text v1).
Measured here, per source, on the same logical log:

* regenerate — ``generate_history``, whose log is a ``ColumnarLog``
  (what every sweep paid per process before trace-backed sources);
* text v1 parse — ``ColumnarLog(read_trace(path))``;
* binary v2 load — ``load_columnar(path)`` with and without the
  verification pass.

The acceptance gate asserts binary load is >= 10x faster than
regenerate.  A second scenario times a cold-start (store-miss)
two-method sweep end to end from each source via ``run_experiment``,
including the jobs=2 mmap-per-worker path.  Artifact:
``benchmarks/out/trace_io.txt``.
"""

import time

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.render import ascii_table
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.source import config_for_scale
from repro.ethereum.workload import generate_history
from repro.graph.columnar import ColumnarLog
from repro.graph.io import load_columnar, read_trace, write_columnar, write_trace

SWEEP_METHODS = ("hash", "fennel")
SWEEP_KS = (2, 4)


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.benchmark(group="trace-io")
def test_trace_load_vs_regenerate(bench_scale, out_dir, tmp_path):
    seed = 42
    cfg = config_for_scale(bench_scale, seed)

    t0 = time.perf_counter()
    workload = generate_history(cfg)
    log = workload.builder.log
    t_generate = time.perf_counter() - t0

    text_path = tmp_path / "trace.txt"
    binary_path = tmp_path / "trace.rct"
    write_trace(workload.builder.log, str(text_path))
    write_columnar(log, binary_path)

    t_text, text_log = _best_of(lambda: ColumnarLog(read_trace(str(text_path))))
    t_bin, bin_log = _best_of(lambda: load_columnar(binary_path))
    t_bin_raw, _ = _best_of(lambda: load_columnar(binary_path, verify=False))

    # every path must hand replays the same log, bit for bit
    assert text_log.identical(log)
    assert bin_log.identical(log)

    # --- end-to-end: cold-start (store-miss) sweep from each source ---
    spec_kwargs = dict(methods=SWEEP_METHODS, ks=SWEEP_KS, window_hours=24.0)
    synth_spec = ExperimentSpec(scale=bench_scale, workload_seed=seed, **spec_kwargs)
    trace_spec = ExperimentSpec(source=str(binary_path), **spec_kwargs)

    t0 = time.perf_counter()
    rs_synth = run_experiment(synth_spec)      # regenerates the workload
    t_sweep_synth = time.perf_counter() - t0

    t0 = time.perf_counter()
    rs_trace = run_experiment(trace_spec)      # mmaps the trace
    t_sweep_trace = time.perf_counter() - t0

    t0 = time.perf_counter()
    rs_trace2 = run_experiment(trace_spec, jobs=2)   # workers mmap themselves
    t_sweep_trace2 = time.perf_counter() - t0

    for key in rs_synth.keys():
        assert rs_trace.cell(key) == rs_synth.cell(key)
        assert rs_trace2.cell(key) == rs_synth.cell(key)

    speedup = t_generate / t_bin if t_bin else float("inf")
    rows = [
        ("regenerate (EVM replay)", f"{t_generate * 1e3:9.1f}", "1.0x"),
        ("text v1 parse", f"{t_text * 1e3:9.1f}",
         f"{t_generate / t_text:.1f}x"),
        ("binary v2 mmap load (verify)", f"{t_bin * 1e3:9.1f}",
         f"{speedup:.0f}x"),
        ("binary v2 mmap load (no verify)", f"{t_bin_raw * 1e3:9.1f}",
         f"{t_generate / t_bin_raw:.0f}x"),
    ]
    sweep_rows = [
        ("synthetic source (regenerates)", f"{t_sweep_synth:8.2f}s", "1.0x"),
        ("trace source, jobs=1 (mmap)", f"{t_sweep_trace:8.2f}s",
         f"{t_sweep_synth / t_sweep_trace:.1f}x"),
        ("trace source, jobs=2 (mmap/worker)", f"{t_sweep_trace2:8.2f}s",
         f"{t_sweep_synth / t_sweep_trace2:.1f}x"),
    ]
    n_cells = len(synth_spec.cells())
    write_artifact(
        out_dir, "trace_io.txt",
        ascii_table(
            ["log source", "open (ms)", "vs regenerate"],
            rows,
            title=(
                f"TRACE-IO — opening the workload log "
                f"(scale={bench_scale}: {len(log)} interactions, "
                f"{log.num_vertices} vertices; best of 3)"
            ),
        )
        + "\n\n"
        + ascii_table(
            ["cold-start sweep (store miss)", "wall-clock", "speedup"],
            sweep_rows,
            title=(
                f"end-to-end: {n_cells}-cell sweep "
                f"({len(SWEEP_METHODS)} methods x {len(SWEEP_KS)} ks) "
                "via run_experiment, results bit-identical"
            ),
        ),
    )

    # the acceptance gate: mmap load >= 10x faster than regenerating
    assert speedup >= 10.0, (
        f"binary load only {speedup:.1f}x faster than regenerate "
        f"({t_bin * 1e3:.1f}ms vs {t_generate * 1e3:.1f}ms)"
    )
