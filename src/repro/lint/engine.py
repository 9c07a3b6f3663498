"""reprolint execution engine: file discovery, parsing, suppressions.

The engine is deliberately dependency-free (``ast`` + ``tokenize``):
it must run in CI before anything is installed and must never import
the code under analysis — a module whose *import* is broken still
lints.

Model:

* :class:`Module` — one parsed source file: AST, source lines, the
  per-line suppression table, and its path split into segments (rules
  scope themselves by directory segments such as ``core``/``metis``).
* :class:`Project` — every module of one lint run.  Cross-file rules
  (RL005 trace-format drift, RL008 registry completeness) read the
  whole project; per-module rules see one module at a time.
* :class:`Finding` — one diagnostic, with a stable
  ``file:line:col + rule id`` identity used by both reporters.

Suppressions are per line::

    risky_line()  # reprolint: disable=RL002 -- why this is safe

The rule ids listed after ``disable=`` are ignored for findings on
that physical line only; everything after ``--`` is a free-form
justification (required by convention, not enforced).

Recursive discovery skips directories named in :data:`EXCLUDED_DIRS`
(test fixture trees hold intentional violations); passing a path
explicitly always lints it.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import os
import re
import tokenize
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

SEVERITY_ERROR = "error"
SEVERITY_ADVICE = "advice"

#: Directory names never entered during recursive discovery.
#: ``fixtures`` holds lint-test snippets that are *meant* to violate
#: rules; explicit path arguments still lint them.
EXCLUDED_DIRS = frozenset({"__pycache__", "fixtures", "build", "dist"})

#: ``# reprolint: disable=RL001,RL002 [-- justification]``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic with a stable file:line:col + rule identity."""

    path: str        #: file path relative to the lint root (posix)
    line: int        #: 1-based line
    col: int         #: 1-based column
    rule: str        #: rule id, e.g. ``"RL002"``
    severity: str    #: ``"error"`` or ``"advice"``
    message: str
    #: call-chain evidence for interprocedural findings (RL011):
    #: entry-point symbol first, tainted function last; empty otherwise
    chain: Tuple[str, ...] = ()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.chain:
            out["chain"] = list(self.chain)
        return out


class Module:
    """One parsed source file plus its suppression table."""

    def __init__(self, abspath: str, relpath: str, text: str):
        self.abspath = abspath
        self.relpath = relpath.replace(os.sep, "/")
        self.text = text
        self.parts: Tuple[str, ...] = tuple(self.relpath.split("/"))
        self.basename = self.parts[-1]
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[Tuple[int, int, str]] = None
        try:
            self.tree = ast.parse(text, filename=self.relpath)
        except SyntaxError as exc:
            self.parse_error = (
                exc.lineno or 1,
                (exc.offset or 1) or 1,
                exc.msg or "invalid syntax",
            )
        self.disables: Dict[int, FrozenSet[str]] = (
            _parse_suppressions(text) if self.tree is not None else {}
        )
        self._summary = None

    @property
    def summary(self):
        """The module's :class:`~repro.lint.callgraph.ModuleSummary`.

        Built lazily from the AST; None for files that do not parse.
        """
        if self._summary is None and self.tree is not None:
            from repro.lint.callgraph import build_summary

            self._summary = build_summary(self.relpath, self.tree)
        return self._summary

    def in_dirs(self, *names: str) -> bool:
        """True when any *directory* segment of the path matches."""
        return any(n in self.parts[:-1] for n in names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Module({self.relpath!r})"


class Project:
    """All modules of one lint run (the unit cross-file rules see)."""

    def __init__(self, modules: Sequence[Module]):
        self.modules: List[Module] = list(modules)
        self.by_relpath: Dict[str, Module] = {m.relpath: m for m in self.modules}

    @property
    def summaries(self):
        """Module summaries of every parseable module, in module order
        (the project rules' working set)."""
        return [m.summary for m in self.modules if m.summary is not None]


@dataclasses.dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    findings: Tuple[Finding, ...]   #: kept findings, sorted
    suppressed: int                 #: findings removed by disable comments
    files: int                      #: modules linted

    @property
    def errors(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_ERROR)

    @property
    def advice(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_ADVICE)

    @property
    def exit_code(self) -> int:
        """0 when clean; advice never fails a run."""
        return 1 if self.errors else 0

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-ready form (the ``--format json`` schema)."""
        return {
            "schema": "reprolint/2",
            "files": self.files,
            "findings": [f.to_dict() for f in self.findings],
            "counts": {
                "error": len(self.errors),
                "advice": len(self.advice),
                "suppressed": self.suppressed,
            },
            "exit": self.exit_code,
        }


def _parse_suppressions(text: str) -> Dict[int, FrozenSet[str]]:
    """line -> rule ids disabled on that line.

    Tokenizes rather than regexing raw lines so a ``# reprolint:``
    sequence inside a string literal is not mistaken for a directive.
    """
    disables: Dict[int, set] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                ids = {
                    part.strip().upper()
                    for part in match.group(1).split(",")
                    if part.strip()
                }
                disables.setdefault(tok.start[0], set()).update(ids)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # the AST parsed, so this is a tokenize corner case; findings
        # simply cannot be suppressed in this file
        return {}
    return {line: frozenset(ids) for line, ids in disables.items()}


def collect_files(paths: Sequence[str]) -> List[str]:
    """Python files under ``paths`` (absolute, sorted, deduplicated).

    Directories are walked recursively, skipping hidden directories
    and :data:`EXCLUDED_DIRS`; explicitly named files are always
    included.  Unknown paths raise ``FileNotFoundError``.
    """
    out: List[str] = []
    for path in paths:
        abspath = os.path.abspath(os.fspath(path))
        if os.path.isfile(abspath):
            out.append(abspath)
        elif os.path.isdir(abspath):
            for dirpath, dirnames, filenames in os.walk(abspath):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in EXCLUDED_DIRS and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        out.append(os.path.join(dirpath, filename))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(out))


def _lint_root(paths: Sequence[str]) -> str:
    """Directory findings are reported relative to.

    The common ancestor of the *arguments* (not the files), so
    ``python -m repro.lint src tests`` reports ``src/...`` and
    ``tests/...`` regardless of the current directory.
    """
    bases = []
    for path in paths:
        abspath = os.path.abspath(os.fspath(path))
        bases.append(os.path.dirname(abspath) if os.path.isfile(abspath) else abspath)
    if not bases:
        return os.getcwd()
    root = os.path.commonpath(bases)
    # one directory argument: keep its *parent* so path segments like
    # "core" stay visible to scoped rules when linting e.g. src/repro/core
    if len(set(bases)) == 1 and os.path.isdir(bases[0]):
        parent = os.path.dirname(root)
        return parent or root
    return root


def load_project(paths: Sequence[str]) -> Project:
    """Parse every Python file reachable from ``paths``."""
    files = collect_files(paths)
    root = _lint_root(paths)
    modules = []
    for abspath in files:
        with open(abspath, "r", encoding="utf-8") as f:
            text = f.read()
        relpath = os.path.relpath(abspath, root)
        modules.append(Module(abspath, relpath, text))
    return Project(modules)


def lint_project(
    project: Project, select: Optional[Iterable[str]] = None
) -> LintReport:
    """Run (optionally a subset of) the rules over a loaded project."""
    from repro.lint.rules import active_rules

    findings: List[Finding] = []
    for module in project.modules:
        if module.parse_error is not None:
            line, col, msg = module.parse_error
            findings.append(
                Finding(
                    path=module.relpath,
                    line=line,
                    col=col,
                    rule="RL000",
                    severity=SEVERITY_ERROR,
                    message=f"file does not parse: {msg}",
                )
            )
    for rule in active_rules(select):
        findings.extend(rule.run(project))

    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        module = project.by_relpath.get(finding.path)
        disabled = module.disables.get(finding.line, frozenset()) if module else frozenset()
        if finding.rule in disabled:
            suppressed += 1
        else:
            kept.append(finding)
    return LintReport(
        findings=tuple(sorted(kept)),
        suppressed=suppressed,
        files=len(project.modules),
    )


def lint_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> LintReport:
    """Lint the given files/directories; the library entry point."""
    return lint_project(load_project(paths), select=select)
