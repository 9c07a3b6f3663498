"""Traced runs: spans around the public calls of each layer.

Nothing in ``src/`` records timing, so the benchmark wraps the public
functions and methods each layer exposes, from the outside, for the
duration of a traced sweep.  Each wrapped call records one span (name,
start, end, parent) in memory; :func:`self_times` turns the span tree
into per-name self time (duration minus the part of it child spans
cover) and :func:`layer_metrics` folds spans and counters into the
benchmark's per-layer metrics.

A wrapped function is replaced in every loaded ``repro`` module that
binds it, so ``from x import f`` call sites are covered too.  Kernels
are wrapped as attributes of the active backend module, which is how
every caller reaches them (``kernels.active().name(...)``).
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (name, start, end, parent index or -1)
Span = Tuple[str, float, float, int]


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def spans(self) -> List[Span]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def dump(self, path: str, extra: Dict) -> None:
        """Write spans and counters, column-wise, as gzip'd JSON."""
        payload = dict(extra)
        payload["spans"] = {
            "name": self.names, "start": self.starts,
            "end": self.ends, "parent": self.parents,
        }
        payload["counts"] = dict(self.counts)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _SpanContext:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.index = self.rec.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.close(self.index)


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus child coverage.

    Coverage is the union of the children's intervals, clipped to the
    parent's, so overlapping or out-of-range children never drive a
    self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, float] = collections.defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] += (end - start) - covered
    return dict(out)


def total_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Inclusive time per span name, counting nested same-name spans once."""
    out: Dict[str, float] = collections.defaultdict(float)
    for name, start, end, parent in spans:
        if parent < 0 or spans[parent][0] != name:
            out[name] += end - start
    return dict(out)


# ----------------------------------------------------------------------
# wrapping


def _wrap(rec: Recorder, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    """``fn`` recording a span per call; ``after(result, args)`` counts."""
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = open_(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(index)
        if after is not None:
            after(result, args)
        return result

    return wrapper


class Patcher:
    """Installs wrappers and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function wherever a repro module binds it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def method(self, cls, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap a method, classmethod or staticmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._set(cls, attr, wrapped)

    def attribute(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap a callable attribute of a module object (kernel backends)."""
        self._set(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


#: kernel name -> span name
KERNEL_SPANS = {
    "window_pass": "kernels.window_pass",
    "account_window": "kernels.account_window",
    "static_cut_count": "kernels.static_cut_count",
    "conn_matrix": "kernels.refine",
    "gain_vector": "kernels.refine",
    "kl_proposals": "kernels.refine",
    "part_weights": "kernels.refine",
    "boundary_list": "kernels.refine",
    "hem_matching": "kernels.refine",
    "cut_value": "kernels.refine",
    "max_weighted_degree": "kernels.refine",
    "unassigned_list": "kernels.refine",
    "csr_from_window": "kernels.csr_build",
    "graph_batch": "kernels.csr_build",
}


def install(rec: Recorder) -> Patcher:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.core.replay as replay_mod
    import repro.ethereum.workload as workload_mod
    import repro.graph.io as io_mod
    import repro.graph.undirected as undirected_mod
    import repro.metis.api as api_mod
    import repro.metis.bisect  # noqa: F401  (binds the wrapped names)
    import repro.metis.coarsen as coarsen_mod
    import repro.metis.initial as initial_mod
    import repro.metis.kway  # noqa: F401
    import repro.metis.refine as refine_mod
    from repro import kernels
    from repro.core.multireplay import MultiReplayEngine
    from repro.experiments.results import CellResult, ResultSet
    from repro.experiments.spec import MethodSpec
    from repro.experiments.store import ResultStore
    from repro.metis.graph import CSRGraph
    from repro.sharding.coordinator import ShardedExecution

    p = Patcher()

    def span(name, after=None):
        return lambda fn: _wrap(rec, name, fn, after)

    def counter(name, value):
        return lambda result, args: rec.count(name, value(result, args))

    p.function(workload_mod, "generate_history", span("ethereum.generate"))
    p.function(io_mod, "write_columnar", span("io.export"))
    p.function(io_mod, "load_trace_log", span("io.load_trace"))

    p.method(MultiReplayEngine, "run", span("multireplay.run"))
    p.function(replay_mod, "apply_proposal", span(
        "core.apply_proposal", counter("core.moves", lambda r, a: r)))

    def make_method(make):
        # wrap the engine's calls into each method instance, not the
        # class methods, so a subclass calling super() is one span
        @functools.wraps(make)
        def wrapper(self, *args, **kwargs):
            method = make(self, *args, **kwargs)
            method.place_new_vertices = _wrap(
                rec, "core.place", method.place_new_vertices)
            method.maybe_repartition = _wrap(
                rec, f"core.repartition.{self.name}", method.maybe_repartition,
                counter("core.proposals", lambda r, a: r is not None))
            return method
        return wrapper

    p.method(MethodSpec, "make", make_method)

    def warm_count(result, args):
        rec.count("metis.warm", int(result.warm))

    p.function(api_mod, "part_graph", span("metis.part_graph", warm_count))
    p.function(undirected_mod, "collapse_to_undirected", span("metis.to_csr"))
    for attr in ("from_undirected", "from_digraph", "from_graph_batch",
                 "from_columnar"):
        p.method(CSRGraph, attr, span("metis.to_csr"))
    p.function(coarsen_mod, "coarsen", span("metis.coarsen"))
    p.function(coarsen_mod, "coarsen_warm", span("metis.coarsen"))
    p.function(initial_mod, "greedy_graph_growing", span("metis.initial"))
    p.function(initial_mod, "spectral_bisection", span("metis.initial"))
    p.function(refine_mod, "fm_refine", span("metis.fm_refine"))
    for attr in ("boundary_kway_refine", "kway_refine", "rebalance_kway"):
        p.function(refine_mod, attr, span("metis.kway_refine"))

    backend = kernels.active()
    for attr, name in KERNEL_SPANS.items():
        p.attribute(backend, attr, span(name))
    acc = backend.CSRAccumulator
    for attr, value in list(vars(acc).items()):
        if not attr.startswith("_") and callable(value):
            p.method(acc, attr, span("kernels.csr_build"))

    p.method(ShardedExecution, "replay_columnar", span(
        "sharding.replay", counter("sharding.rows", _replayed_rows)))

    p.method(CellResult, "from_replay", span("results.from_replay"))
    p.method(ResultSet, "dumps", span(
        "results.dumps", counter("results.dumps_bytes", lambda r, a: len(r))))
    p.method(ResultStore, "save", span("store.save"))
    p.method(ResultStore, "load", span(
        "store.load", counter("store.load_misses", lambda r, a: r is None)))
    return p


def _replayed_rows(result, args) -> int:
    # replay_columnar(self, log, lo=0, hi=None, ...)
    log = args[1]
    lo = args[2] if len(args) > 2 else 0
    hi = args[3] if len(args) > 3 and args[3] is not None else len(log)
    return hi - lo


# ----------------------------------------------------------------------
# metrics

#: per-layer metric name -> (unit, source): ("self", span) is summed
#: self time, ("total", span) inclusive time, ("calls", span) the span
#: count, ("count", counter) a counter
METHOD_NAMES = ("hash", "fennel", "kl", "metis", "p-metis", "tr-metis")

LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, str]]] = {
    "ethereum.generate_s": ("s", ("self", "ethereum.generate")),
    "io.export_s": ("s", ("self", "io.export")),
    "io.load_trace_s": ("s", ("self", "io.load_trace")),
    "multireplay.run_s": ("s", ("total", "multireplay.run")),
    "multireplay.self_s": ("s", ("self", "multireplay.run")),
    "multireplay.windows": ("count", ("calls", "kernels.window_pass")),
    "kernels.window_pass_s": ("s", ("self", "kernels.window_pass")),
    "kernels.window_pass_calls": ("count", ("calls", "kernels.window_pass")),
    "kernels.account_window_s": ("s", ("self", "kernels.account_window")),
    "kernels.account_window_calls": ("count", ("calls", "kernels.account_window")),
    "kernels.static_cut_count_s": ("s", ("self", "kernels.static_cut_count")),
    "kernels.refine_s": ("s", ("self", "kernels.refine")),
    "kernels.refine_calls": ("count", ("calls", "kernels.refine")),
    "kernels.csr_build_s": ("s", ("self", "kernels.csr_build")),
    "core.place_s": ("s", ("self", "core.place")),
    "core.place_calls": ("count", ("calls", "core.place")),
    "core.apply_proposal_s": ("s", ("self", "core.apply_proposal")),
    "core.moves": ("count", ("count", "core.moves")),
    **{
        f"core.repartition_s.{m}": ("s", ("self", f"core.repartition.{m}"))
        for m in METHOD_NAMES
    },
    "core.proposals": ("count", ("count", "core.proposals")),
    "metis.part_graph_s": ("s", ("self", "metis.part_graph")),
    "metis.part_graph_total_s": ("s", ("total", "metis.part_graph")),
    "metis.part_graph_calls": ("count", ("calls", "metis.part_graph")),
    "metis.to_csr_s": ("s", ("self", "metis.to_csr")),
    "metis.coarsen_s": ("s", ("self", "metis.coarsen")),
    "metis.initial_s": ("s", ("self", "metis.initial")),
    "metis.fm_refine_s": ("s", ("self", "metis.fm_refine")),
    "metis.kway_refine_s": ("s", ("self", "metis.kway_refine")),
    "sharding.replay_s": ("s", ("self", "sharding.replay")),
    "sharding.rows": ("count", ("count", "sharding.rows")),
    "results.from_replay_s": ("s", ("self", "results.from_replay")),
    "results.dumps_s": ("s", ("self", "results.dumps")),
    "results.dumps_bytes": ("bytes", ("count", "results.dumps_bytes")),
    "store.save_s": ("s", ("self", "store.save")),
    "store.saves": ("count", ("calls", "store.save")),
    "store.load_s": ("s", ("self", "store.load")),
    "store.loads": ("count", ("calls", "store.load")),
    "store.load_misses": ("count", ("count", "store.load_misses")),
}


def layer_metrics(spans: Sequence[Span], counts: Dict[str, int]) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced sweep."""
    selfs = self_times(spans)
    totals = total_times(spans)
    calls = collections.Counter(name for name, _s, _e, _p in spans)
    table = {"self": selfs, "total": totals, "calls": calls, "count": counts}
    out: Dict[str, float] = {}
    for metric, (_unit, (kind, key)) in LAYER_METRICS.items():
        out[metric] = table[kind].get(key, 0)
    offers = sum(calls.get(f"core.repartition.{m}", 0) for m in METHOD_NAMES)
    out["core.offers"] = offers
    out["core.proposal_ratio"] = out["core.proposals"] / offers if offers else 0.0
    part_calls = calls.get("metis.part_graph", 0)
    out["metis.warm_ratio"] = counts.get("metis.warm", 0) / part_calls if part_calls else 0.0
    return out


def metric_units() -> Dict[str, str]:
    units = {m: unit for m, (unit, _src) in LAYER_METRICS.items()}
    units.update({
        "core.offers": "count", "core.proposal_ratio": "ratio",
        "metis.warm_ratio": "ratio", "io.trace_bytes": "bytes",
        "trace.overhead_s": "s", "trace.unattributed_s": "s",
    })
    return units

