"""Benchmark of the sweep path, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 42 --seconds 10 --trace 0

A run generates its workload's logs from ``--seed`` and exports each as
an rctrace v3 file (set-up, repeated and timed), sweeps each once
untimed (warm-up, and the reference output the checks read), then
repeats rounds of the user's ``sweep --source TRACE --store DIR --out
FILE`` path until ``--seconds`` have passed: for each log,
``run_experiment(spec, jobs=1, store=<empty ResultStore>)`` and
``ResultSet.dumps()``, then the same spec again against the filled store
(the resume) and ``dumps()``, three times.  One process, one sweep at a
time, no arrival schedule: a closed-loop batch job.

``--trace 0`` times every sweep, resume and set-up in segments cut at
the interpreter's garbage collections (``segmented``).  The work is
deterministic, so every repeat of one log collects at the same points
and its segments line up; a timing is the sum over segments of each
segment's median across repeats (``segment_median``), summed over the
workload's logs.  On a shared host other tenants slow the machine in
bursts of milliseconds to seconds; a per-segment median drops each
burst wherever it falls, and varies far less between runs than the
median or the minimum of whole sweeps.  Peak memory is the median over
rounds.  The round totals are printed on a ``{"samples": ...}`` line,
with their quartiles beside each metric.
``--trace 1`` alternates untraced rounds with traced ones, whose spans
around each layer's public calls give the per-layer metrics (see
``tracing.py``); the spans of the last traced round are written to
``.perfbench/spans-<workload>-s<seed>.json.gz``.

Every run checks its outputs: each cell of the reference against a
naive recount from the raw log (``checks.py``), every repeat's
``dumps()`` byte-identical to the reference, every resume recomputing
zero cells, and set-up producing identical trace bytes each time.
Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``selftest.py`` shows that these checks and the traced run's
arithmetic work.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: set-up repeats per log
SETUP_REPS = 5
#: resumes timed after each round's cold sweeps
RESUME_REPS = 3
#: fewest timed rounds per run, however long they take
MIN_ROUNDS = 3
#: fewest repeats whose segments line up for a per-segment median
MIN_ALIGNED = 3


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark (VmHWM) to the current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def file_sha1(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def source_sha1() -> str:
    """Digest of every file under ``src/``: identifies the code measured."""
    digest = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            digest.update(file_sha1(path).encode())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def differing_cells(text: str, reference: str) -> int:
    """Cells of a ``dumps()`` output that differ from the reference's."""
    if text == reference:
        return 0
    got, want = json.loads(text), json.loads(reference)
    if got["spec"] != want["spec"] or len(got["cells"]) != len(want["cells"]):
        return len(want["cells"])
    return sum(1 for a, b in zip(got["cells"], want["cells"]) if a != b)


# ----------------------------------------------------------------------
# segmented timing


def segmented(fn: Callable[[], object]) -> Tuple[object, List[float], List[float]]:
    """``fn()``, timed in segments cut where each garbage collection starts.

    Returns the result and the wall and CPU seconds of every segment.  A
    full collection first zeroes the collector's counters, so a call
    that allocates the same way as an earlier one is cut at the same
    points.
    """
    walls: List[float] = []
    cpus: List[float] = []
    wall, cpu = time.perf_counter, time.process_time

    def mark(phase, _info):
        if phase == "start":
            walls.append(wall())
            cpus.append(cpu())

    gc.collect()
    gc.callbacks.append(mark)
    try:
        cpus.append(cpu())
        walls.append(wall())
        result = fn()
        walls.append(wall())
        cpus.append(cpu())
    finally:
        gc.callbacks.remove(mark)
    return (result, [b - a for a, b in zip(walls, walls[1:])],
            [b - a for a, b in zip(cpus, cpus[1:])])


def segment_median(samples: Sequence[Sequence[float]]) -> float:
    """Sum over segments of each segment's median across repeats.

    Only repeats cut into the most common number of segments are used;
    if fewer than :data:`MIN_ALIGNED` agree, the median of the repeats'
    totals is returned instead.
    """
    size, count = collections.Counter(len(s) for s in samples).most_common(1)[0]
    if count < MIN_ALIGNED:
        return statistics.median(sum(s) for s in samples)
    aligned = [s for s in samples if len(s) == size]
    return sum(statistics.median(column) for column in zip(*aligned))


def set_up(config, trace_path: str, reps: int):
    """Generate + export one log ``reps`` times: (segments per rep, log, trace digests)."""
    import repro.ethereum.workload as workload_mod
    import repro.graph.io as io_mod

    def once():
        log = workload_mod.generate_history(config).builder.log
        io_mod.write_columnar(log, trace_path, version=io_mod.TRACE_VERSION_V3)
        return log

    samples: List[List[float]] = []
    digests = set()
    log = None
    for _ in range(reps):
        log = None
        log, walls, _cpus = segmented(once)
        samples.append(walls)
        digests.add(file_sha1(trace_path))
    return samples, log, digests


def _no_span(_name):
    return contextlib.nullcontext()


class Sweeper:
    """Runs one log's cold sweep and its resume; compares against a reference."""

    def __init__(self, spec, store_dir: str) -> None:
        self.spec = spec
        self.store_dir = store_dir
        self.reference: Optional[str] = None
        self.sweeps = 0        # sweeps whose cells were checked
        self.failed = 0        # cells that failed a check

    def _run(self, progress=None):
        from repro.experiments.run import run_experiment
        from repro.experiments.store import ResultStore

        return run_experiment(
            self.spec, jobs=1, store=ResultStore(self.store_dir),
            progress=progress)

    def cold(self):
        rs = self._run()
        return rs, rs.dumps()

    def resume(self):
        computed: List = []

        def progress(key, outcome):
            if outcome == "computed":
                computed.append(key)

        return self._run(progress).dumps(), len(computed)

    def clear(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def warm_up(self, facts) -> Dict[str, List[str]]:
        """The untimed first sweep; its output becomes the reference."""
        from checks import check_result_set

        self.clear()
        rs, self.reference = self.cold()
        problems = check_result_set(rs, facts)
        self.sweeps += 1
        self.failed += len(problems)
        self.clear()
        return problems

    def timed_cold(self, span=_no_span) -> Tuple[List[float], List[float]]:
        """One cold sweep into an empty store: (wall, CPU) segments."""
        self.clear()

        def sweep():
            with span("grid"):
                return self.cold()[1]

        text, walls, cpus = segmented(sweep)
        self.sweeps += 1
        self.failed += differing_cells(text, self.reference)
        return walls, cpus

    def timed_resume(self, span=_no_span) -> List[float]:
        """One resume from the store the last cold sweep filled: wall segments."""

        def resume():
            with span("resume"):
                return self.resume()

        (text, recomputed), walls, _cpus = segmented(resume)
        self.sweeps += 1
        self.failed += max(recomputed, differing_cells(text, self.reference))
        return walls


END_TO_END_UNITS = {
    "setup_s": "s", "grid_s": "s", "grid_cpu_s": "s", "resume_s": "s",
    "peak_rss_mb": "MB",
}


def measure(sweepers: Sequence[Sweeper], seconds: float):
    """Timed rounds until ``seconds`` pass.

    Returns the segments of every repeat, per metric and log, and each
    round's totals over the logs.
    """
    segments: Dict[str, List[List[List[float]]]] = {
        m: [[] for _ in sweepers] for m in ("grid_s", "grid_cpu_s", "resume_s")}
    totals: Dict[str, List[float]] = {
        "grid_s": [], "grid_cpu_s": [], "resume_s": [], "peak_rss_mb": []}
    start = time.perf_counter()
    while (len(totals["grid_s"]) < MIN_ROUNDS
           or time.perf_counter() - start < seconds):
        reset_peak_rss()
        walls, cpus = zip(*(sw.timed_cold() for sw in sweepers))
        totals["peak_rss_mb"].append(peak_rss_mb())
        for i, (w, c) in enumerate(zip(walls, cpus)):
            segments["grid_s"][i].append(w)
            segments["grid_cpu_s"][i].append(c)
        totals["grid_s"].append(sum(map(sum, walls)))
        totals["grid_cpu_s"].append(sum(map(sum, cpus)))
        for _ in range(RESUME_REPS):
            walls = [sw.timed_resume() for sw in sweepers]
            for i, w in enumerate(walls):
                segments["resume_s"][i].append(w)
            totals["resume_s"].append(sum(map(sum, walls)))
        for sw in sweepers:
            sw.clear()
    return segments, totals


def measure_traced(sweepers: Sequence[Sweeper], seconds: float, dump_path: str,
                   extra: Dict):
    """Alternate untraced and traced rounds; per-layer medians.

    Returns the metrics and whether every count repeated exactly.
    """
    import tracing

    untraced: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    unattributed: List[float] = []

    def one_round(span=_no_span) -> float:
        grid = sum(sum(sw.timed_cold(span)[0]) for sw in sweepers)
        for sw in sweepers:
            sw.timed_resume(span)
            sw.clear()
        return grid

    start = time.perf_counter()
    rec = None
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                untraced.append(one_round())
                continue
            rec = tracing.Recorder()
            patcher = tracing.install(rec)
            try:
                traced.append(one_round(rec.span))
            finally:
                patcher.restore()
            spans = rec.spans()
            layers.append(tracing.layer_metrics(spans, rec.counts))
            unattributed.append(tracing.self_times(spans)["grid"])
    rec.dump(dump_path, extra)
    out = {m: statistics.median(layer[m] for layer in layers) for m in layers[0]}
    repeatable = all(
        layer[m] == layers[0][m]
        for layer in layers for m, (unit, _src) in tracing.LAYER_METRICS.items()
        if unit != "s"
    )
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out["trace.unattributed_s"] = statistics.median(unattributed)
    return out, repeatable


def run(workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    import checks
    import tracing

    n_logs = workload.logs
    configs = [workload.config(seed, i) for i in range(n_logs)]
    paths = [os.path.join(work, f"{workload.name}-{i}.rct") for i in range(n_logs)]
    logs = []
    deterministic = True
    setup_samples: List[List[List[float]]] = []
    if trace:
        rec = tracing.Recorder()
        patcher = tracing.install(rec)
        try:
            first = [set_up(c, p, 1)[2] for c, p in zip(configs, paths)]
        finally:
            patcher.restore()
        # a second, untraced set-up for the determinism check
        for config, path, digests in zip(configs, paths, first):
            _segments, log, again = set_up(config, path, 1)
            logs.append(log)
            deterministic = deterministic and len(digests | again) == 1
        setup_layers = tracing.layer_metrics(rec.spans(), rec.counts)
        setup_metrics = {
            m: setup_layers[m] for m in ("ethereum.generate_s", "io.export_s")}
        setup_metrics["io.trace_bytes"] = sum(os.path.getsize(p) for p in paths)
    else:
        for config, path in zip(configs, paths):
            samples, log, digests = set_up(config, path, SETUP_REPS)
            setup_samples.append(samples)
            logs.append(log)
            deterministic = deterministic and len(digests) == 1

    facts = [checks.LogFacts(log) for log in logs]
    del logs, log
    specs = [workload.spec(path) for path in paths]
    sweepers = [Sweeper(spec, os.path.join(work, f"store-{i}"))
                for i, spec in enumerate(specs)]
    problems: Dict[str, List[str]] = {}
    for i, (sweeper, log_facts) in enumerate(zip(sweepers, facts)):
        for label, found in sweeper.warm_up(log_facts).items():
            problems[f"log {i} {label}"] = found
    # the harness's own long-lived objects (log facts, reference outputs)
    # go to the permanent generation, so they add nothing to the
    # collections the timed sweeps trigger
    gc.freeze()
    n_cells = len(specs[0].cells())

    from repro import kernels
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    provenance = {
        "workload": workload.name, "seed": seed, "commit": git_commit(),
        "source_sha1": source_sha1(), "kernel_backend": kernels.backend_name(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "logs": n_logs,
        "log_seeds": [c.seed for c in configs],
        "rows": [f.rows for f in facts],
        "vertices": [len(f.vertices) for f in facts],
        "cells": n_cells * n_logs,
        "windows": [len(f.window_starts(specs[0].window_seconds)) for f in facts],
        "run_seconds": seconds, "trace": int(trace),
    }

    samples: Dict[str, List[float]] = {}
    if trace:
        dump_path = os.path.join(WORK, f"spans-{workload.name}-s{seed}.json.gz")
        layers, repeatable = measure_traced(
            sweepers, seconds, dump_path, {"provenance": provenance})
        metrics = {**layers, **setup_metrics}
        units = tracing.metric_units()
        deterministic = deterministic and repeatable
    else:
        segments, samples = measure(sweepers, seconds)
        segments["setup_s"] = setup_samples
        samples["setup_s"] = [sum(reps) for reps in zip(
            *([sum(s) for s in log_samples] for log_samples in setup_samples))]
        metrics = {
            m: sum(segment_median(per_log) for per_log in by_log)
            for m, by_log in segments.items()
        }
        metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
        units = END_TO_END_UNITS

    for label, found in problems.items():
        print(f"check failed: {label}: {'; '.join(found)}", file=sys.stderr)
    if not deterministic:
        print("check failed: set-up or counts differ between repeats",
              file=sys.stderr)
    return {
        "provenance": provenance,
        "samples": samples,
        "result": {
            "correct": sum(sw.failed for sw in sweepers) == 0 and deterministic,
            "attempted": sum(sw.sweeps for sw in sweepers) * n_cells,
            "failed": sum(sw.failed for sw in sweepers),
            "metrics": {
                m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)
            },
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = out["result"]
    print(json.dumps({"provenance": out["provenance"]}, sort_keys=True))
    if out["samples"]:
        print(json.dumps({"samples": out["samples"]}, sort_keys=True))
    for name, metric in result["metrics"].items():
        line = f"{name:32s} {metric['value']:>16.6f} {metric['unit']}"
        values = out["samples"].get(name)
        if values and len(values) > 1:
            low, mid, high = statistics.quantiles(values, n=4)
            line += (f"  ({len(values)} repeats; quartiles {low:.6f} "
                     f"{mid:.6f} {high:.6f})")
        print(line)
    print(f"{'cells_failed':32s} {result['failed']:>9d}/{result['attempted']} cells")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
