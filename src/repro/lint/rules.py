"""The reprolint rule set (RL001–RL010).

Each rule is a small AST visitor registered in :data:`RULES`.  Two
shapes exist:

* **module rules** implement :meth:`Rule.check_module` and see one
  parsed file at a time (optionally scoped to directory segments via
  :meth:`Rule.applies`);
* **project rules** override :meth:`Rule.run` and see every module of
  the lint run at once — RL005 cross-checks the rctrace writer/reader
  constants wherever they live, RL008 joins the ``PartitionMethod``
  class hierarchy against the registry.

Rules never *import* the code under analysis; everything is derived
from source text, so a module with a broken import still lints and the
linter cannot be confused by runtime monkey-patching.

Severity is ``error`` (gates CI) or ``advice`` (reported, never fails
the run — used for planned-optimisation markers like RL010).
"""

from __future__ import annotations

import ast
import struct
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.lint.callgraph import _dotted
from repro.lint.engine import (
    SEVERITY_ADVICE,
    SEVERITY_ERROR,
    Finding,
    Module,
    Project,
)

RULES: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the registry (keyed by id)."""
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def all_rules() -> List["Rule"]:
    """One instance of every registered rule, in id order."""
    return [RULES[rule_id]() for rule_id in sorted(RULES)]


def get_rule(rule_id: str) -> "Rule":
    try:
        return RULES[rule_id.upper()]()
    except KeyError:
        raise ValueError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(RULES))}"
        ) from None


def active_rules(select: Optional[Iterable[str]] = None) -> List["Rule"]:
    if select is None:
        return all_rules()
    return [get_rule(rule_id) for rule_id in select]


class Rule:
    """Base class; subclasses set the metadata and one check method.

    Module rules implement :meth:`check_module`; project rules override
    :meth:`run` and read the project's module summaries.
    """

    id: str = "RL000"
    name: str = "abstract"
    severity: str = SEVERITY_ERROR
    #: one-line rationale (surfaced by ``--list-rules`` and the docs)
    rationale: str = ""
    #: minimal example violation, for the docs table
    example: str = ""

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.tree is None or not self.applies(module):
                continue
            yield from self.check_module(module)

    def applies(self, module: Module) -> bool:
        return True

    def check_module(self, module: Module) -> Iterator[Finding]:
        return iter(())

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
        )

    def finding_at(
        self,
        relpath: str,
        line: int,
        col_offset: int,
        message: str,
        chain: Tuple[str, ...] = (),
    ) -> Finding:
        """A finding anchored by summary coordinates (0-based column),
        for project rules that no longer hold an AST node."""
        return Finding(
            path=relpath,
            line=line,
            col=col_offset + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
            chain=chain,
        )


# ----------------------------------------------------------------------
# shared AST helpers


def _resolved_call_name(
    node: ast.Call,
    modules: Dict[str, str],
    names: Dict[str, Tuple[str, str]],
) -> Optional[str]:
    """The fully-qualified dotted name a call resolves to, via imports.

    ``rnd.randint(...)`` -> ``random.randint``;
    ``now()`` after ``from datetime import datetime as now``… resolves
    through the alias table.  None when the callee is not a plain
    Name/Attribute chain.
    """
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in modules:
        base = modules[head]
        return f"{base}.{rest}" if rest else base
    if head in names:
        mod, orig = names[head]
        qualified = f"{mod}.{orig}"
        return f"{qualified}.{rest}" if rest else qualified
    return dotted


def _func_scopes(tree: ast.Module) -> Iterator[Tuple[Optional[ast.AST], List[ast.stmt]]]:
    """(scope node, body) for the module and every function in it."""
    yield None, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _walk_shallow(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes.

    Nested function/lambda nodes are yielded (so callers can see them)
    but their bodies are not entered — :func:`_func_scopes` hands each
    function body to its own pass, and descending here would double
    -report every finding inside it.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# RL001 — unseeded randomness


@register
class UnseededRandom(Rule):
    id = "RL001"
    name = "unseeded-random"
    rationale = (
        "the module-level random.* functions share one process-global "
        "RNG seeded from OS entropy; replay determinism requires every "
        "stochastic decision to flow from an injected random.Random(seed)"
    )
    example = "jitter = random.random()"

    #: attributes of the random module that are deterministic to touch
    _ALLOWED = frozenset({"Random"})

    def check_module(self, module: Module) -> Iterator[Finding]:
        modules, names = module.summary.aliases, module.summary.from_names
        random_aliases = {a for a, m in modules.items() if m == "random"}
        rng_names = self._rng_instance_names(module.tree, modules, names)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in random_aliases
                    and node.attr not in self._ALLOWED
                ):
                    yield self.finding(
                        module,
                        node,
                        f"random.{node.attr} uses the process-global RNG; "
                        "inject a seeded random.Random(seed) instead",
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                origin = names.get(node.id)
                if origin and origin[0] == "random" and origin[1] not in self._ALLOWED:
                    yield self.finding(
                        module,
                        node,
                        f"random.{origin[1]} (imported as {node.id}) uses the "
                        "process-global RNG; inject a seeded "
                        "random.Random(seed) instead",
                    )
            elif isinstance(node, ast.Call):
                callee = _resolved_call_name(node, modules, names)
                if callee == "random.Random" and not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed draws from OS "
                        "entropy; pass an explicit seed",
                    )
                elif self._is_argless_reseed(node, rng_names, modules, names):
                    yield self.finding(
                        module,
                        node,
                        ".seed() with no arguments reseeds the RNG from "
                        "OS entropy; pass an explicit seed",
                    )

    def _rng_instance_names(self, tree, modules, names) -> Set[str]:
        """Names bound to ``random.Random(...)`` instances anywhere in
        the file (scope-insensitive on purpose: a false merge would
        only matter if the same name were also a non-RNG with a
        ``.seed()`` method, which does not occur in practice)."""
        rng: Set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and _resolved_call_name(node.value, modules, names) == "random.Random"
            ):
                rng.add(node.targets[0].id)
        return rng

    def _is_argless_reseed(self, node: ast.Call, rng_names, modules, names) -> bool:
        """``rng.seed()`` / ``random.Random(x).seed()`` with no args.

        Note ``random.seed()`` (the module-global) is already flagged by
        the attribute branch above; this closes the *instance* gap.
        """
        if node.args or node.keywords:
            return False
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "seed"):
            return False
        receiver = node.func.value
        if isinstance(receiver, ast.Name):
            return receiver.id in rng_names
        if isinstance(receiver, ast.Call):
            return _resolved_call_name(receiver, modules, names) == "random.Random"
        return False


# ----------------------------------------------------------------------
# RL002 — nondeterministic iteration


_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _SetTypeInference:
    """Conservative set-typed-expression inference for one scope."""

    def __init__(self, body: Sequence[ast.stmt]):
        self.set_names: Set[str] = set()
        self.dict_names: Set[str] = set()
        for node in _walk_shallow(body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if self.is_setlike(node.value):
                        self.set_names.add(target.id)
                    elif self.is_dictlike(node.value):
                        self.dict_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                annotation = _dotted(node.annotation) or ""
                if annotation.split(".")[-1] in ("set", "Set", "FrozenSet", "frozenset"):
                    self.set_names.add(node.target.id)

    def is_setlike(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_setlike(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_setlike(node.left) or self.is_setlike(node.right)
        return False

    def is_dictlike(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.dict_names
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("dict", "defaultdict", "OrderedDict", "Counter")
        return False

    def is_unordered_iter(self, node: ast.AST) -> bool:
        """True for an expression whose iteration order is hash-driven."""
        if self.is_setlike(node):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values", "items")
            and self.is_setlike(node.func.value)
        ):
            return True  # pragma: no cover - sets have no keys(); defensive
        return False


@register
class UnsortedSetIteration(Rule):
    id = "RL002"
    name = "unsorted-set-iter"
    rationale = (
        "set iteration order depends on PYTHONHASHSEED and insertion "
        "history; in the modules that feed shard assignments and cache "
        "keys it must pass through sorted() to keep replays bit-identical"
    )
    example = "for v in {dst for _, dst in edges}: place(v)"

    _SCOPES = ("core", "metis", "experiments")
    _MATERIALISERS = frozenset({"list", "tuple", "enumerate"})
    #: calls whose result does not depend on argument iteration order,
    #: so a comprehension they consume directly is deterministic even
    #: over a set (``sorted(x.label for x in unknown_set)``)
    _ORDER_INSENSITIVE = frozenset(
        {"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"}
    )

    def applies(self, module: Module) -> bool:
        return module.in_dirs(*self._SCOPES)

    def check_module(self, module: Module) -> Iterator[Finding]:
        for _scope, body in _func_scopes(module.tree):
            inference = _SetTypeInference(body)
            exempt = self._order_insensitive_args(body)
            for node in _walk_shallow(body):
                if id(node) in exempt:
                    continue
                for iter_expr in self._iteration_exprs(node):
                    if inference.is_unordered_iter(iter_expr):
                        yield self.finding(
                            module,
                            iter_expr,
                            "iterating a set here is ordered by "
                            "PYTHONHASHSEED, not by value; wrap it in "
                            "sorted() (or iterate a deterministic source)",
                        )

    def _iteration_exprs(self, node: ast.AST) -> Iterator[ast.AST]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in self._MATERIALISERS and node.args:
                yield node.args[0]
        elif isinstance(node, ast.Starred):
            yield node.value

    def _order_insensitive_args(self, body: Sequence[ast.stmt]) -> Set[int]:
        """ids of comprehension nodes fed straight into sorted()/any()/…"""
        exempt: Set[int] = set()
        comp_types = (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        for node in _walk_shallow(body):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_INSENSITIVE
            ):
                for arg in node.args:
                    if isinstance(arg, comp_types):
                        exempt.add(id(arg))
        return exempt


# ----------------------------------------------------------------------
# RL003 — wall-clock reads


@register
class WallClock(Rule):
    id = "RL003"
    name = "wall-clock"
    rationale = (
        "replay and partitioning decisions must be functions of the "
        "trace, never of when the code runs; wall-clock reads make "
        "results unreproducible (duration *measurement* belongs in "
        "benchmarks, via time.perf_counter)"
    )
    example = "cutoff = time.time() - 3600"

    _SCOPES = ("core", "metis", "graph", "experiments", "sharding")
    _BANNED = {
        "time.time": "time.time()",
        "time.time_ns": "time.time_ns()",
        "datetime.datetime.now": "datetime.now()",
        "datetime.datetime.utcnow": "datetime.utcnow()",
        "datetime.datetime.today": "datetime.today()",
        "datetime.date.today": "date.today()",
    }

    def applies(self, module: Module) -> bool:
        return module.in_dirs(*self._SCOPES)

    def check_module(self, module: Module) -> Iterator[Finding]:
        modules, names = module.summary.aliases, module.summary.from_names
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _resolved_call_name(node, modules, names)
            if callee in self._BANNED:
                yield self.finding(
                    module,
                    node,
                    f"{self._BANNED[callee]} reads the wall clock inside "
                    "replay/partitioning code; derive times from the "
                    "trace (or time.perf_counter for durations)",
                )


# ----------------------------------------------------------------------
# RL004 — float equality in metrics


@register
class FloatEquality(Rule):
    id = "RL004"
    name = "float-equality"
    rationale = (
        "metrics are ratios of accumulated floats; == / != on them "
        "flips with benign reorderings — compare with a tolerance "
        "(math.isclose) or restructure around exact integer counts"
    )
    example = "if balance == 1.0: ..."

    _SCOPES = ("metrics",)
    #: test/bench files assert *bit-identity* on purpose — exact float
    #: equality is their whole point — so the rule covers production
    #: metrics code only
    _EXEMPT_PREFIXES = ("test_", "bench_", "conftest")

    def applies(self, module: Module) -> bool:
        return module.in_dirs(*self._SCOPES) and not module.basename.startswith(
            self._EXEMPT_PREFIXES
        )

    def check_module(self, module: Module) -> Iterator[Finding]:
        for _scope, body in _func_scopes(module.tree):
            float_names: Set[str] = set()
            for node in _walk_shallow(body):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and self._floaty(node.value, float_names):
                        float_names.add(target.id)
            for node in _walk_shallow(body):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left] + list(node.comparators)
                for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    if self._floaty(lhs, float_names) or self._floaty(rhs, float_names):
                        yield self.finding(
                            module,
                            node,
                            "float == / != comparison in metrics code; "
                            "use math.isclose / an explicit tolerance, or "
                            "compare the underlying integer counts",
                        )
                        break

    def _floaty(self, node: ast.AST, float_names: Set[str]) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return node.id in float_names
        if isinstance(node, ast.UnaryOp):
            return self._floaty(node.operand, float_names)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floaty(node.left, float_names) or self._floaty(
                node.right, float_names
            )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "float"
        return False


# ----------------------------------------------------------------------
# RL005 — rctrace format drift (project rule)


class _Struct:
    """Marker for ``struct.Struct("<fmt>")`` constants in the mini-eval."""

    def __init__(self, fmt: str):
        self.fmt = fmt

    @property
    def size(self) -> int:
        return struct.calcsize(self.fmt)


class _Unevaluable(Exception):
    pass


def _const_eval(node: ast.AST, env: Dict[str, object]) -> object:
    """Literal evaluator over module constants (tuples, dicts, names).

    Any other shape raises :class:`_Unevaluable`, which leaves the name
    unbound in RL005's environment (see docs/lint_internals.md).
    """
    if isinstance(node, ast.Constant):
        if node.value is None or isinstance(node.value, (str, int, float, bool)):
            return node.value
        raise _Unevaluable("constant type")
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(_const_eval(elt, env) for elt in node.elts)
    if isinstance(node, ast.Dict):
        return {
            _const_eval(k, env): _const_eval(v, env)
            for k, v in zip(node.keys, node.values)
            if k is not None
        }
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise _Unevaluable(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _const_eval(node.operand, env)
        if isinstance(operand, (int, float)):
            return -operand
        raise _Unevaluable("usub")
    if isinstance(node, ast.Call) and not node.keywords:
        dotted = _dotted(node.func) or ""
        if dotted.split(".")[-1] == "Struct" and len(node.args) == 1:
            fmt = _const_eval(node.args[0], env)
            if isinstance(fmt, str):
                try:
                    struct.calcsize(fmt)
                except struct.error as exc:
                    raise _Unevaluable(f"bad struct format: {exc}") from exc
                return _Struct(fmt)
        if dotted == "frozenset" and len(node.args) <= 1:
            arg = _const_eval(node.args[0], env) if node.args else ()
            if isinstance(arg, tuple):
                return frozenset(arg)
    raise _Unevaluable(type(node).__name__)


@register
class TraceFormatDrift(Rule):
    id = "RL005"
    name = "rctrace-drift"
    rationale = (
        "the rctrace writer and readers share byte-layout contracts "
        "(64-byte header, 12-byte section entries, the v2/v3 section "
        "tables and encoding tags); editing one side without the other "
        "produces traces that misload silently on old readers"
    )
    example = '_SECTION_ENTRY = struct.Struct("<BBHQQ")  # no longer 12 bytes'

    #: the byte-layout contracts (module docstring of repro.graph.io)
    _HEADER_BYTES = 64
    _SECTION_ENTRY_BYTES = 12
    _V3_TABLE_NAME = "_V3_SECTIONS"
    _V2_TABLE_NAME = "_ROW_SECTIONS"

    def run(self, project: Project) -> Iterator[Finding]:
        env: Dict[str, object] = {}
        anchors: Dict[str, Tuple[str, int, int]] = {}
        for summary in project.summaries:
            for name, expr, line, col in summary.consts:
                try:
                    value = _const_eval(expr, env)
                except _Unevaluable:
                    continue
                env[name] = value
                anchors[name] = (summary.relpath, line, col)

        def at(name: str, message: str) -> Finding:
            relpath, line, col = anchors[name]
            return self.finding_at(relpath, line, col, message)

        yield from self._check_structs(env, at)
        yield from self._check_tags(env, at)
        yield from self._check_tables(env, at)

    def _check_structs(self, env, at) -> Iterator[Finding]:
        header = env.get("_HEADER")
        if isinstance(header, _Struct) and header.size != self._HEADER_BYTES:
            yield at(
                "_HEADER",
                f"header struct format {header.fmt!r} packs {header.size} "
                f"bytes; the rctrace header contract is "
                f"{self._HEADER_BYTES} bytes (readers seek past a fixed "
                "64-byte header)",
            )
        entry = env.get("_SECTION_ENTRY")
        if isinstance(entry, _Struct) and entry.size != self._SECTION_ENTRY_BYTES:
            yield at(
                "_SECTION_ENTRY",
                f"v3 section-table entry format {entry.fmt!r} packs "
                f"{entry.size} bytes; readers stride the table in "
                f"{self._SECTION_ENTRY_BYTES}-byte entries",
            )

    def _check_tags(self, env, at) -> Iterator[Finding]:
        tags = {
            name: value
            for name, value in env.items()
            if name.startswith("ENC_") and isinstance(value, int)
        }
        by_value: Dict[int, List[str]] = {}
        for name, value in sorted(tags.items()):
            by_value.setdefault(value, []).append(name)
        for value, names in sorted(by_value.items()):
            if len(names) > 1:
                yield at(
                    names[1],
                    f"encoding tags {' and '.join(names)} share value "
                    f"{value}; a reader cannot distinguish the sections "
                    "they mark",
                )
        enc_names = env.get("_ENC_NAMES")
        if isinstance(enc_names, dict):
            for name, value in sorted(tags.items()):
                if value not in enc_names:
                    yield at(
                        name,
                        f"encoding tag {name}={value} has no entry in "
                        "_ENC_NAMES; reader diagnostics would report it "
                        "as 'unknown'",
                    )

    def _check_tables(self, env, at) -> Iterator[Finding]:
        v3 = env.get(self._V3_TABLE_NAME)
        v3_ok = False
        if isinstance(v3, tuple):
            v3_ok = True
            seen: Set[str] = set()
            for entry in v3:
                if not (isinstance(entry, tuple) and len(entry) == 5):
                    yield at(
                        self._V3_TABLE_NAME,
                        f"{self._V3_TABLE_NAME} entry {entry!r} is not a "
                        "(name, typecode, itemsize, allowed tags, default "
                        "tag) 5-tuple",
                    )
                    v3_ok = False
                    continue
                name, typecode, itemsize, allowed, default = entry
                if name in seen:
                    yield at(
                        self._V3_TABLE_NAME,
                        f"duplicate section name {name!r} in "
                        f"{self._V3_TABLE_NAME}",
                    )
                seen.add(name)
                try:
                    actual = struct.calcsize(f"<{typecode}")
                except (struct.error, TypeError):
                    actual = None
                if actual is not None and actual != itemsize:
                    yield at(
                        self._V3_TABLE_NAME,
                        f"section {name!r} declares itemsize {itemsize} "
                        f"but typecode {typecode!r} packs {actual} "
                        "byte(s); size-derived offsets will drift",
                    )
                if not isinstance(allowed, (tuple, frozenset)):
                    continue
                if default not in allowed:
                    yield at(
                        self._V3_TABLE_NAME,
                        f"section {name!r} writes encoding tag {default} "
                        f"by default but the reader only accepts "
                        f"{sorted(allowed)} — written traces would be "
                        "rejected on load",
                    )
                enc_names = env.get("_ENC_NAMES")
                if isinstance(enc_names, dict):
                    for tag in sorted(set(allowed) | {default}):
                        if tag not in enc_names:
                            yield at(
                                self._V3_TABLE_NAME,
                                f"section {name!r} references encoding "
                                f"tag {tag} which is not a defined "
                                "encoding (_ENC_NAMES)",
                            )
        v2 = env.get(self._V2_TABLE_NAME)
        if isinstance(v2, tuple) and v3_ok and isinstance(v3, tuple):
            v3_rows = [
                entry[:3]
                for entry in v3
                if isinstance(entry, tuple) and len(entry) == 5 and entry[0] != "vertex_ids"
            ]
            v2_rows = [entry for entry in v2 if isinstance(entry, tuple)]
            if [r[0] for r in v2_rows] != [r[0] for r in v3_rows]:
                yield at(
                    self._V2_TABLE_NAME,
                    f"v2 row sections {[r[0] for r in v2_rows]} disagree "
                    f"with the v3 section table "
                    f"{[r[0] for r in v3_rows]} (order and names must "
                    "match for lossless v2<->v3 conversion)",
                )
            else:
                for v2_row, v3_row in zip(v2_rows, v3_rows):
                    if tuple(v2_row) != tuple(v3_row):
                        yield at(
                            self._V2_TABLE_NAME,
                            f"section {v2_row[0]!r}: v2 declares "
                            f"{tuple(v2_row[1:])}, v3 declares "
                            f"{tuple(v3_row[1:])} (typecode/itemsize "
                            "must agree across format versions)",
                        )


# ----------------------------------------------------------------------
# RL006 — mutable default arguments


@register
class MutableDefault(Rule):
    id = "RL006"
    name = "mutable-default"
    rationale = (
        "a mutable default is evaluated once and shared across calls — "
        "state leaks between replays and between experiment cells"
    )
    example = "def run(self, extras=[]): ..."

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}
    )
    #: RNG constructors: a `= random.Random(seed)` default is *worse*
    #: than a plain mutable container — the one shared instance carries
    #: generator state across calls, so results depend on call order
    #: within the process even though every call looks seeded
    _RNG_CALLS = frozenset({"Random", "SystemRandom", "default_rng"})

    def check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if self._rng_state(default):
                    yield self.finding(
                        module,
                        default,
                        "RNG default argument holds generator state shared "
                        "across calls — results depend on call order even "
                        "with a seed; default to None and construct the "
                        "seeded instance inside the function",
                    )
                elif self._mutable(default):
                    yield self.finding(
                        module,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and create the value inside the "
                        "function",
                    )

    def _mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func) or ""
            return dotted.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def _rng_state(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = _dotted(node.func) or ""
        return dotted.split(".")[-1] in self._RNG_CALLS


# ----------------------------------------------------------------------
# RL007 — broad except that can swallow TraceFormatError


@register
class BroadExcept(Rule):
    id = "RL007"
    name = "broad-except"
    rationale = (
        "a bare/broad except without a re-raise can swallow "
        "TraceFormatError (and KeyboardInterrupt), turning a corrupt "
        "trace into silently wrong results"
    )
    example = "try: log = load_trace_log(p)\nexcept Exception: log = None"

    _BROAD = frozenset({"Exception", "BaseException"})

    def check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if any(isinstance(n, ast.Raise) for body in node.body for n in ast.walk(body)):
                continue  # handler re-raises (possibly wrapped): not a swallow
            yield self.finding(
                module,
                node,
                f"{broad} handler without a re-raise can swallow "
                "TraceFormatError; catch the specific exceptions or "
                "re-raise",
            )

    def _broad_name(self, type_node: Optional[ast.AST]) -> Optional[str]:
        if type_node is None:
            return "bare except:"
        names = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for name_node in names:
            dotted = _dotted(name_node) or ""
            tail = dotted.split(".")[-1]
            if tail in self._BROAD:
                return f"except {tail}"
        return None


# ----------------------------------------------------------------------
# RL008 — registry completeness (project rule)


@register
class RegistryCompleteness(Rule):
    id = "RL008"
    name = "registry-complete"
    rationale = (
        "the experiment API validates method strings against the "
        "registry; a PartitionMethod subclass that is not registered "
        "(or whose factory hides parameters behind *args/**kwargs) is "
        "unreachable from specs and silently skips parameter validation"
    )
    example = "class NewPartitioner(PartitionMethod): ...  # never registered"

    _BASE = "PartitionMethod"
    _FACTORIES_NAME = "_FACTORIES"
    _REGISTER_FUNC = "register_method"

    def run(self, project: Project) -> Iterator[Finding]:
        # top-level class definitions, in file order (duplicated names
        # across files are each checked); classes defined inside
        # functions are scoped helpers that *cannot* be meaningfully
        # registered, so they are exempt by construction
        top_level: List[Tuple[str, str, int, int]] = []
        classes: Dict[str, Tuple[str, object]] = {}  # first occurrence wins
        bases: Dict[str, Set[str]] = {}
        factory_classes: Set[str] = set()
        runtime_registered: Set[str] = set()
        registry_present = False

        for summary in project.summaries:
            for name, line, col in summary.top_level_classes:
                top_level.append((summary.relpath, name, line, col))
            for name, info in summary.classes.items():
                classes.setdefault(name, (summary.relpath, info))
                bases.setdefault(name, set()).update(info.base_tails)
            factory_classes.update(summary.factories)
            runtime_registered.update(summary.register_calls)
            registry_present = registry_present or summary.registry_present

        if not registry_present:
            return  # no registry in this lint set: nothing to join against

        subclasses = self._transitive_subclasses(bases)
        registered = factory_classes | runtime_registered
        for relpath, name, line, col in top_level:
            if name not in subclasses:
                continue
            known = classes.get(name)
            if known is not None and known[1].is_abstract:
                continue
            if name not in registered:
                yield self.finding_at(
                    relpath,
                    line,
                    col,
                    f"{name} subclasses {self._BASE} but is neither in "
                    f"{self._FACTORIES_NAME} nor registered via "
                    f"{self._REGISTER_FUNC}(); it is unreachable from "
                    "method specs",
                )
        for name in sorted(factory_classes & set(classes)):
            relpath, info = classes[name]
            sig = self._find_init_sig(name, classes, bases)
            if sig is None:
                continue
            yield from self._check_init(relpath, info, name, sig)

    def _transitive_subclasses(self, bases: Dict[str, Set[str]]) -> Set[str]:
        known = {self._BASE}
        changed = True
        while changed:
            changed = False
            for name, base_names in bases.items():
                if name not in known and base_names & known:
                    known.add(name)
                    changed = True
        known.discard(self._BASE)
        return known

    def _find_init_sig(
        self,
        name: str,
        classes: Dict[str, Tuple[str, object]],
        bases: Dict[str, Set[str]],
    ) -> Optional[Dict[str, object]]:
        """The ``__init__`` signature summary along the local MRO."""
        seen: Set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in classes:
                continue
            seen.add(current)
            info = classes[current][1]
            if info.init_sig is not None:
                return info.init_sig
            queue.extend(sorted(bases.get(current, ())))
        return None

    def _check_init(
        self, relpath: str, info, name: str, sig: Dict[str, object]
    ) -> Iterator[Finding]:
        if sig.get("varargs"):
            yield self.finding_at(
                relpath,
                info.line,
                info.col,
                f"registered method {name}'s __init__ takes "
                "*args/**kwargs; method_params() cannot introspect its "
                "parameters, so specs lose up-front validation",
            )
            return
        params = list(sig.get("params", ()))
        for required in ("k", "seed"):
            if required not in params:
                yield self.finding_at(
                    relpath,
                    info.line,
                    info.col,
                    f"registered method {name}'s __init__ does not accept "
                    f"{required!r}; the registry instantiates factories "
                    "as factory(k, seed=..., **params)",
                )


# ----------------------------------------------------------------------
# RL009 — mutation of frozen spec objects


@register
class FrozenSpecMutation(Rule):
    id = "RL009"
    name = "frozen-spec-mutation"
    rationale = (
        "MethodSpec/ExperimentSpec/ExecutionSpec/CellKey are frozen "
        "values used as cache and store keys; mutating one "
        "(object.__setattr__ outside the constructor) silently corrupts "
        "store identity"
    )
    example = "object.__setattr__(spec, 'scale', 'large')"

    _FROZEN_CLASSES = frozenset(
        {"MethodSpec", "ExperimentSpec", "ExecutionSpec", "CellKey"}
    )
    _FROZEN_FACTORIES = frozenset({"parse", "of", "from_dict", "replace"})
    _ALLOWED_FUNCS = frozenset(
        {"__init__", "__post_init__", "__new__", "__setstate__", "replace", "_replace"}
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        for scope, body in _func_scopes(module.tree):
            scope_name = getattr(scope, "name", "<module>")
            frozen_names = self._frozen_names(scope, body)
            for node in _walk_shallow(body):
                if isinstance(node, ast.Call):
                    if (
                        _dotted(node.func) == "object.__setattr__"
                        and scope_name not in self._ALLOWED_FUNCS
                    ):
                        yield self.finding(
                            module,
                            node,
                            "object.__setattr__ outside __init__/"
                            "__post_init__/replace mutates a frozen "
                            "object; build a new spec instead "
                            "(dataclasses.replace)",
                        )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in frozen_names
                        ):
                            yield self.finding(
                                module,
                                target,
                                f"attribute assignment on frozen spec "
                                f"{target.value.id!r}; frozen dataclasses "
                                "reject this at runtime — build a new "
                                "spec (dataclasses.replace)",
                            )

    def _frozen_names(
        self, scope: Optional[ast.AST], body: Sequence[ast.stmt]
    ) -> Set[str]:
        names: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                if arg.annotation is not None and self._spec_annotation(arg.annotation):
                    names.add(arg.arg)
        for node in _walk_shallow(body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and self._is_spec_expr(node.value):
                    names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if self._spec_annotation(node.annotation):
                    names.add(node.target.id)
        return names

    def _is_spec_expr(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = _dotted(node.func) or ""
        parts = dotted.split(".")
        if parts[-1] in self._FROZEN_CLASSES:
            return True
        return (
            len(parts) >= 2
            and parts[-2] in self._FROZEN_CLASSES
            and parts[-1] in self._FROZEN_FACTORIES
        )

    def _spec_annotation(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.split(".")[-1].strip("'\"") in self._FROZEN_CLASSES
        return (_dotted(node) or "").split(".")[-1] in self._FROZEN_CLASSES


# ----------------------------------------------------------------------
# RL010 — per-row Interaction access in batch-kernel target modules


@register
class RowwiseInteraction(Rule):
    id = "RL010"
    name = "rowwise-interaction"
    severity = SEVERITY_ADVICE
    rationale = (
        "the replay/partitioning hot path runs on batch kernels over "
        "dense ColumnarLog columns (repro.kernels): a per-row "
        "Interaction attribute loop in a kernel-dispatching module or a "
        "ROADMAP batch-kernel target reintroduces the Ethereum-scale "
        "bottleneck those kernels removed"
    )
    example = "for it in window: graph.add_edge(it.src, it.dst, 1)"

    #: (directory segment, module basename) pairs the ROADMAP names —
    #: flagged even before they dispatch to kernels
    _TARGETS = (
        ("core", "multireplay.py"),
        ("core", "fennel.py"),
        ("metis", "graph.py"),
        ("metis", "matching.py"),
        ("metis", "refine.py"),
        # the execution engine reads the log's dense columns; a per-row
        # Interaction loop there would undo that
        ("sharding", "coordinator.py"),
    )
    _ROW_ATTRS = frozenset(
        {"src", "dst", "timestamp", "tx_id", "src_kind", "dst_kind"}
    )

    def applies(self, module: Module) -> bool:
        # a module becomes a target either by being named in the ROADMAP
        # list or by already dispatching to the kernel layer — converted
        # modules stay in scope so a *new* per-row loop is still flagged
        return any(
            module.basename == basename and module.in_dirs(segment)
            for segment, basename in self._TARGETS
        ) or self._dispatches_to_kernels(module)

    def _dispatches_to_kernels(self, module: Module) -> bool:
        """True if the module contains a kernel-dispatch call site.

        Recognised forms: ``kernels.active()`` (any import spelling of
        the ``repro.kernels`` package) and a bare ``active()`` when the
        name was imported from the kernels package.
        """
        bare_active = False
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[-1] == "kernels":
                    bare_active |= any(
                        (alias.asname or alias.name) == "active"
                        for alias in node.names
                    )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func) or ""
            if dotted == "kernels.active" or dotted.endswith(".kernels.active"):
                return True
            if bare_active and dotted == "active":
                return True
        return False

    def check_module(self, module: Module) -> Iterator[Finding]:
        dispatches = self._dispatches_to_kernels(module)
        hint = (
            "this module already dispatches to repro.kernels — route "
            "the loop through a batch kernel"
            if dispatches
            else "this module is a ROADMAP batch-kernel target — "
            "consider bulk kernels over ColumnarLog columns"
        )
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                loop_vars = self._target_names(node.target)
                search: List[ast.AST] = list(node.body)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                loop_vars = set()
                for gen in node.generators:
                    loop_vars |= self._target_names(gen.target)
                search = (
                    [node.key, node.value]
                    if isinstance(node, ast.DictComp)
                    else [node.elt]
                )
                # nested generators iterate row attributes too:
                # (e for it in rows for e in (it.src, it.dst))
                for gen in node.generators:
                    search.append(gen.iter)
                    search.extend(gen.ifs)
            else:
                continue
            attrs = self._row_attrs(search, loop_vars)
            if attrs:
                yield self.finding(
                    module,
                    node,
                    "loop reads Interaction attributes "
                    f"({', '.join(sorted(attrs))}) per row; {hint}",
                )

    def _target_names(self, target: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
        return names

    def _row_attrs(self, search: Sequence[ast.AST], loop_vars: Set[str]) -> Set[str]:
        attrs: Set[str] = set()
        for root in search:
            for node in ast.walk(root):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in loop_vars
                    and node.attr in self._ROW_ATTRS
                ):
                    attrs.add(node.attr)
        return attrs


# ----------------------------------------------------------------------
# interprocedural rules (RL011–RL013) live in flowrules.py; importing
# the module registers them.  The import sits at the bottom so
# flowrules can import Rule/register from this (partially initialised)
# module without a cycle.

from repro.lint import flowrules as _flowrules  # noqa: E402,F401
