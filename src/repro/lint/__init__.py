"""``reprolint`` — AST-based determinism & trace-safety linter.

Every headline result in this reproduction is a *bit-identity* claim:
warm vs cold METIS, trace-sourced vs synthetic sweeps, ``jobs=1`` vs
``jobs=N`` all assert byte-equal outputs.  Those claims rest on
invariants no test exercises directly — seeded RNGs only, order-stable
iteration in assignment paths, no wall-clock in replay, writer/reader
agreement on the rctrace section tables.  ``reprolint`` checks them
statically, so refactors of the hot paths (batch kernels, streaming
ingestion) cannot silently break determinism before a test notices.

Run it over the repo (CI gates on exit 0)::

    python -m repro.lint src tests benchmarks examples
    python -m repro.lint src --format json       # machine-readable
    python -m repro.lint --list-rules            # rule reference

Suppress an intentional violation on its own line, with a reason::

    vals = list(tags)  # reprolint: disable=RL002 -- order-insensitive sum

Rules (see ``docs/lint_rules.md`` for examples and rationale):

====== ===================== ========= =========================================
id     name                  severity  checks
====== ===================== ========= =========================================
RL001  unseeded-random       error     process-global ``random.*`` calls instead
                                       of an injected ``random.Random(seed)``
RL002  unsorted-set-iter     error     iterating sets / dict views without
                                       ``sorted()`` in assignment/cache-key code
                                       (``core/``, ``metis/``, ``experiments/``)
RL003  wall-clock            error     ``time.time()`` / ``datetime.now()``
                                       inside replay/partitioning/trace code
RL004  float-equality        error     float ``==``/``!=`` in ``metrics/``
RL005  rctrace-drift         error     writer/reader disagreement in the rctrace
                                       struct formats, section tables & enc tags
RL006  mutable-default       error     mutable default argument values
RL007  broad-except          error     bare/broad ``except`` without re-raise
                                       (can swallow ``TraceFormatError``)
RL008  registry-complete     error     every ``PartitionMethod`` subclass is
                                       registered with an introspectable factory
RL009  frozen-spec-mutation  error     attribute assignment on frozen spec
                                       objects outside ``__init__``/``replace``
RL010  rowwise-interaction   advice    per-row ``Interaction`` attribute access
                                       in loops of the batch-kernel target
                                       modules named by the ROADMAP
RL011  transitive-taint      error     wall-clock/unseeded-RNG reads *reachable*
                                       from the replay entry points through the
                                       project call graph (chain as evidence)
RL012  pool-boundary         error     lambdas, nested functions, open handles
                                       and buffer-backed ColumnarLogs crossing
                                       ``ProcessPoolExecutor.submit``; unguarded
                                       ``_FORK_SHARED`` readers
RL013  store-identity        error     spec dataclass fields that do not flow
                                       into the ``label()``/``store_id()``/
                                       ``identity`` store-key payload
====== ===================== ========= =========================================

``advice``-level findings are reported but never affect the exit code;
they mark planned optimisation sites, not defects.  ``RL000`` is
reserved for files that fail to parse.

RL011–RL013 are interprocedural: they run on a whole-project symbol
table and call graph (:mod:`repro.lint.callgraph`,
:mod:`repro.lint.dataflow`; see ``docs/lint_internals.md``).  Every
run parses and analyses every file it is given.
"""

from __future__ import annotations

from repro.lint.engine import (
    SEVERITY_ADVICE,
    SEVERITY_ERROR,
    Finding,
    LintReport,
    Module,
    Project,
    lint_paths,
)
from repro.lint.rules import Rule, all_rules, get_rule

__all__ = [
    "Finding",
    "LintReport",
    "Module",
    "Project",
    "Rule",
    "SEVERITY_ADVICE",
    "SEVERITY_ERROR",
    "all_rules",
    "get_rule",
    "lint_paths",
]
