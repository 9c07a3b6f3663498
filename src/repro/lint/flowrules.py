"""Interprocedural rules RL011–RL013 (call-graph + dataflow powered).

These are the rules PR 6's intraprocedural pass could not express:

* **RL011** — a wall-clock read or unseeded-randomness source
  *transitively reachable* from the replay/partitioning entry points
  taints every replay result; the finding carries the full call chain
  from the entry point as evidence (``Finding.chain``, rendered in the
  message and serialized in the ``reprolint/2`` JSON).
* **RL012** — values submitted to a ``ProcessPoolExecutor`` must be
  picklable *by construction*: no lambdas, no functions defined inside
  other functions, no open file handles, no buffer-backed
  :class:`~repro.graph.columnar.ColumnarLog`.  The ``_FORK_SHARED``
  copy-on-write escape hatch is sanctioned, but any submitted function
  that transitively reads it must sit behind a fork-only guard.
* **RL013** — every dataclass field of the spec classes that key the
  result store (``MethodSpec``/``ExperimentSpec``/``ExecutionSpec``
  and ``LogSource`` subclasses) must flow into the identity payload
  (``label()``/``store_id()``/``identity``), or carry a justified
  suppression — statically closing the PR 3 cache-collision class.

All three are project rules: they read the module summaries through
one call graph per lint run.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.dataflow import fork_shared_readers, reachable_taints
from repro.lint.engine import Finding, Project
from repro.lint.rules import Rule, register


def _graph_for(project: Project) -> CallGraph:
    """One shared CallGraph per lint run (edges resolve lazily)."""
    graph = getattr(project, "_callgraph", None)
    if graph is None:
        graph = CallGraph(project.summaries)
        project._callgraph = graph
    return graph


# ----------------------------------------------------------------------
# RL011 — transitive determinism taint


@register
class TransitiveDeterminismTaint(Rule):
    id = "RL011"
    name = "transitive-taint"
    rationale = (
        "a helper that reads the wall clock or unseeded randomness "
        "three frames below a replay entry point corrupts results just "
        "as surely as a direct call; the call graph propagates the "
        "taint from MultiReplayEngine.run / part_graph / "
        "ShardedExecution.replay_columnar to every reachable function"
    )
    example = "def _helper(): return time.time()  # called from run()"

    #: dotted-suffix patterns of the replay/partitioning entry points
    _ENTRY_PATTERNS = (
        "core.multireplay.MultiReplayEngine.run",
        "metis.api.part_graph",
        "sharding.coordinator.ShardedExecution.replay_columnar",
    )

    _KIND_TEXT = {
        "wall-clock": "reads the wall clock",
        "unseeded-random": "draws unseeded randomness",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        graph = _graph_for(project)
        for taint in reachable_taints(graph, self._ENTRY_PATTERNS):
            chain = tuple(taint["chain"])
            what = self._KIND_TEXT.get(str(taint["kind"]), "is nondeterministic")
            yield self.finding_at(
                str(taint["relpath"]),
                int(taint["line"]),
                int(taint["col"]),
                f"{taint['label']} {what} and is reachable from replay "
                f"entry point {chain[0]} (call chain: "
                f"{' -> '.join(chain)}); replay must be a pure function "
                "of the trace and injected seeds",
                chain=chain,
            )


# ----------------------------------------------------------------------
# RL012 — process-pool boundary safety


@register
class ProcessPoolBoundary(Rule):
    id = "RL012"
    name = "pool-boundary"
    rationale = (
        "arguments to ProcessPoolExecutor.submit are pickled through "
        "the call pipe; lambdas, nested functions, open handles and "
        "buffer-backed ColumnarLogs fail (or silently copy) at the "
        "worker boundary — and the _FORK_SHARED copy-on-write escape "
        "hatch is only sound under the fork start method"
    )
    example = "ex.submit(lambda: replay_chunk(log, w, c))"

    _UNPICKLABLE = {
        "lambda": "a lambda cannot be pickled to a worker process; "
        "submit a module-level function",
        "nested_func": "{name}() is defined inside a function and "
        "cannot be pickled to a worker process; move it to module "
        "level",
        "open_handle": "{name} is an open file handle; handles cannot "
        "cross the process boundary — pass the path and open in the "
        "worker",
        "buffer_log": "{name} is a buffer-backed ColumnarLog "
        "(mmap/memoryview); pass a LogSource and let each worker open "
        "its own mapping",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        graph = _graph_for(project)
        readers: Optional[Set[str]] = None  # computed on first use
        for summary in project.summaries:
            for submit in summary.submits:
                items = [submit["func"]] + list(submit["args"])
                for item in items:
                    kind = str(item["kind"])
                    if kind in self._UNPICKLABLE:
                        yield self.finding_at(
                            summary.relpath,
                            int(item["line"]),
                            int(item["col"]),
                            "ProcessPoolExecutor.submit argument: "
                            + self._UNPICKLABLE[kind].format(name=item["name"]),
                        )
                        continue
                    if kind != "module_func" or not item.get("target"):
                        continue
                    if readers is None:
                        readers = fork_shared_readers(graph)
                    for symbol in graph.resolve_name(str(item["target"])):
                        if symbol in readers and not submit["guarded"]:
                            yield self.finding_at(
                                summary.relpath,
                                int(item["line"]),
                                int(item["col"]),
                                f"{item['name']}() reaches the "
                                "_FORK_SHARED copy-on-write state (via "
                                f"{symbol}) but this submit is not "
                                "fork-guarded; _FORK_SHARED is only "
                                "inherited under the 'fork' start "
                                "method — guard the submit with a "
                                "start-method check",
                            )
                            break


# ----------------------------------------------------------------------
# RL013 — store-identity completeness


@register
class StoreIdentityCompleteness(Rule):
    id = "RL013"
    name = "store-identity"
    rationale = (
        "the result store is keyed by spec identity payloads; a spec "
        "field that does not flow into label()/store_id()/identity "
        "makes two different experiments collide in the store and "
        "silently serve each other's cached results (the PR 3 bug "
        "class)"
    )
    example = "@dataclass(frozen=True)\nclass ExperimentSpec:\n    window_hours: float  # missing from store_id()"

    #: spec class -> its identity method/property
    _IDENTITY_METHODS = {
        "MethodSpec": "label",
        "ExperimentSpec": "store_id",
        "ExecutionSpec": "identity",
    }
    _BASE = "LogSource"

    def run(self, project: Project) -> Iterator[Finding]:
        graph = _graph_for(project)
        for summary in project.summaries:
            for name, info in summary.classes.items():
                if not info.is_dataclass:
                    continue
                method = self._IDENTITY_METHODS.get(name)
                if method is None and self._reaches_base(
                    graph, summary.modname, name, set()
                ):
                    method = "identity"
                if method is None:
                    continue
                yield from self._check_class(graph, summary, name, info, method)

    def _reaches_base(
        self,
        graph: CallGraph,
        modname: str,
        clsname: str,
        seen: Set[Tuple[str, str]],
    ) -> bool:
        """Whether the class's base chain reaches ``LogSource``."""
        key = (modname, clsname)
        if key in seen:
            return False
        seen.add(key)
        summary = graph.by_modname.get(modname)
        info = summary.classes.get(clsname) if summary else None
        if info is None:
            return False
        if self._BASE in info.base_tails:
            return True
        for base in info.bases:
            resolved = graph.resolve_class(base)
            if resolved and self._reaches_base(graph, resolved[0], resolved[1], seen):
                return True
        return False

    def _check_class(
        self, graph: CallGraph, summary, clsname: str, info, method_name: str
    ) -> Iterator[Finding]:
        if not info.fields:
            return
        entry = graph.mro_method(summary.modname, clsname, method_name)
        if entry is None:
            yield self.finding_at(
                summary.relpath,
                info.line,
                info.col,
                f"{clsname} keys the result store but defines no "
                f"{method_name}() identity; every field must flow into "
                "a stable identity payload",
            )
            return
        covered, introspects = self._coverage(graph, summary.modname, clsname, entry)
        if introspects:
            return  # dataclasses.fields(self) covers every field
        for field in info.fields:
            if field["name"] not in covered:
                yield self.finding_at(
                    summary.relpath,
                    int(field["line"]),
                    int(field["col"]),
                    f"field {field['name']!r} of {clsname} does not "
                    f"flow into {method_name}(); two specs differing "
                    f"only in {field['name']} would collide in the "
                    "result store — include it in the identity payload "
                    "(or suppress with a written justification)",
                )

    def _coverage(
        self, graph: CallGraph, modname: str, clsname: str, entry: str
    ) -> Tuple[Set[str], bool]:
        """(self attributes read, uses dataclasses.fields) reachable
        from the identity method through ``self.``-dispatched calls."""
        covered: Set[str] = set()
        introspects = False
        seen = {entry}
        queue = deque([entry])
        while queue:
            symbol = queue.popleft()
            record = graph.functions.get(symbol)
            if record is None:
                continue
            _summary, fn = record
            if fn.fields_introspection:
                introspects = True
            for read in fn.self_reads:
                covered.add(read)
                target = graph.mro_method(modname, clsname, read)
                if target is not None and target not in seen:
                    seen.add(target)
                    queue.append(target)
        return covered, introspects
