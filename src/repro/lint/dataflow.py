"""Taint propagation over the call graph.

Two small, deliberately conservative analyses power the
interprocedural rules:

* :func:`reachable_taints` — BFS from the replay/partitioning entry
  points along resolved call edges; every nondeterminism source
  (wall-clock read, unseeded randomness) found in a reachable function
  is reported with the *shortest* call chain from an entry as evidence
  (RL011).  Cycles terminate because BFS never revisits a symbol.
* :func:`fork_shared_readers` — the set of functions that read the
  ``_FORK_SHARED`` module global directly or through any chain of
  project calls; submitting one of these to a process pool is only
  sound under the ``fork`` start method (RL012).

All traversals are monotone over an over-approximated edge set that
only ever *misses* dynamic edges, so a clean report is trustworthy for
the call shapes the resolver understands, and cycles or unresolvable
calls degrade to silence, never to spurious chains.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph


def shortest_chains(
    graph: CallGraph, entries: Sequence[str]
) -> Dict[str, Tuple[str, ...]]:
    """symbol -> shortest call chain (entry, ..., symbol) reaching it.

    Plain BFS over resolved edges, seeded with every entry symbol in
    order; earlier entries win ties so chains are deterministic.
    """
    chains: Dict[str, Tuple[str, ...]] = {}
    queue: deque = deque()
    for entry in entries:
        if entry not in chains and entry in graph.functions:
            chains[entry] = (entry,)
            queue.append(entry)
    while queue:
        symbol = chains_key = queue.popleft()
        chain = chains[chains_key]
        for callee, _call in graph.edges.get(symbol, ()):
            if callee not in chains:
                chains[callee] = chain + (callee,)
                queue.append(callee)
    return chains


def reachable_taints(
    graph: CallGraph, entry_patterns: Sequence[str]
) -> List[Dict[str, object]]:
    """Nondeterminism sources reachable from the entry points.

    Returns one record per distinct tainted call site::

        {"relpath", "line", "col", "kind", "label", "chain"}

    where ``chain`` is the shortest entry→…→function symbol path and
    the site itself is the bad call inside the final function.
    """
    entries = graph.entry_symbols(entry_patterns)
    chains = shortest_chains(graph, entries)
    seen: Set[Tuple[str, int, int, str]] = set()
    out: List[Dict[str, object]] = []
    for symbol in sorted(chains, key=lambda s: (len(chains[s]), s)):
        summary, info = graph.functions[symbol]
        for bad in info.bad_calls:
            key = (summary.relpath, int(bad["line"]), int(bad["col"]), str(bad["label"]))
            if key in seen:
                continue
            seen.add(key)
            out.append(
                {
                    "relpath": summary.relpath,
                    "line": int(bad["line"]),
                    "col": int(bad["col"]),
                    "kind": str(bad["kind"]),
                    "label": str(bad["label"]),
                    "chain": chains[symbol],
                }
            )
    out.sort(key=lambda r: (r["relpath"], r["line"], r["col"], r["label"]))
    return out


def fork_shared_readers(graph: CallGraph) -> Set[str]:
    """Function symbols that reach a ``_FORK_SHARED`` read.

    Computed as the reverse closure of the direct readers: a function
    taints its callers, because submitting *any* frame above the read
    to a non-fork worker ships a function whose behaviour depends on
    fork-inherited state.
    """
    callers: Dict[str, Set[str]] = {}
    for caller, edges in graph.edges.items():
        for callee, _call in edges:
            callers.setdefault(callee, set()).add(caller)
    tainted: Set[str] = {
        symbol
        for symbol, (_summary, info) in graph.functions.items()
        if info.reads_fork_shared
    }
    queue = deque(tainted)
    while queue:
        symbol = queue.popleft()
        for caller in callers.get(symbol, ()):
            if caller not in tainted:
                tainted.add(caller)
                queue.append(caller)
    return tainted
