"""Project-wide symbol table and conservative call graph.

reprolint's original rules are intraprocedural: they flag *direct*
call sites, so a wall-clock read three frames below
``MultiReplayEngine.run`` passes clean.  This module gives the linter
a whole-project view without ever importing the analysed code:

* :func:`build_summary` distils one parsed file into a
  :class:`ModuleSummary` — an intermediate representation holding
  everything the interprocedural rules need (functions and the calls
  they make, classes with fields/bases/``__init__`` signatures,
  top-level assignments for the rctrace-drift checks, registry facts,
  process-pool ``submit`` sites).
* :class:`CallGraph` joins the summaries of one lint run into a symbol
  table and resolves call sites to project functions: per-module
  import/alias resolution (``import repro.graph.io as rio``),
  re-exported names through ``__init__`` modules, ``self.`` dispatch
  inside a class (method resolution walks locally-visible base
  classes), and attribute dispatch through annotation-inferred types
  (``def f(log: ColumnarLog): log.window(...)``).

Everything is *conservative in the quiet direction*: a call the
resolver cannot prove to target a project function produces no edge,
so dynamic dispatch never manufactures false chains.  Cycles in the
call graph are handled by the visited sets of every traversal.

Module names derive from lint-relative paths (``src/`` is stripped,
``__init__.py`` names its package), and imported module paths resolve
by exact match first, then by unique dotted-suffix match — so fixture
projects rooted somewhere under ``tests/`` resolve their own imports
the same way ``repro.*`` does.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Wall-clock reads that make replay results depend on *when* the code
#: runs (shared with RL003; RL011 uses it for transitive taint).
WALL_CLOCK_CALLS: Dict[str, str] = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}

#: ``random`` attributes that are deterministic to touch (shared with
#: RL001 and the RL011 taint source detection).
RANDOM_ALLOWED = frozenset({"Random"})

#: Call targets (dotted-name tails) that produce a possibly
#: mmap/memoryview-backed :class:`ColumnarLog` — unpicklable, so they
#: must never flow into a process-pool ``submit`` (RL012).
BUFFER_LOG_MAKERS = frozenset(
    {"load_columnar", "load_trace_log", "ColumnarLog.from_buffers"}
)

_TAINT_WALL_CLOCK = "wall-clock"
_TAINT_UNSEEDED = "unseeded-random"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(
    tree: ast.Module, modname: str = "", is_package: bool = False
) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]:
    """(module aliases, from-import aliases) of a file.

    ``import random as rnd`` -> ``{"rnd": "random"}``;
    ``from random import randint as ri`` -> ``{"ri": ("random", "randint")}``.
    Relative imports resolve against ``modname`` when it is known.
    """
    modules: Dict[str, str] = {}
    names: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level > 0:
                package = _relative_base(modname, is_package, node.level)
                if package is None:
                    continue
                base = f"{package}.{node.module}" if node.module else package
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                names[alias.asname or alias.name] = (base, alias.name)
    return modules, names


def _relative_base(modname: str, is_package: bool, level: int) -> Optional[str]:
    """Package a ``from ..x import y`` resolves against, or None."""
    if not modname:
        return None
    parts = modname.split(".")
    # a package's own module name *is* its level-1 base; a plain module
    # drops its final segment first
    drop = level - 1 if is_package else level
    if drop >= len(parts):
        return None
    return ".".join(parts[: len(parts) - drop]) if drop else modname


def module_name(relpath: str) -> Tuple[str, bool]:
    """(dotted module name, is_package) for a lint-relative path.

    The leading ``src/`` segment is stripped so ``src/repro/x.py``
    names ``repro.x`` — matching how the code imports itself.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if len(parts) > 1 and parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


# ----------------------------------------------------------------------
# the summary IR


@dataclasses.dataclass
class FunctionInfo:
    """One top-level function or method (nested defs fold into it)."""

    qualname: str
    line: int
    col: int
    #: outgoing call sites: {"via": "name"|"self"|"type", ...}
    calls: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    #: nondeterminism taint sources reached *directly* by this body
    bad_calls: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    reads_fork_shared: bool = False
    #: ``self.<attr>`` loads (methods only; RL013 identity coverage)
    self_reads: List[str] = dataclasses.field(default_factory=list)
    #: body calls ``dataclasses.fields(...)`` (covers every field)
    fields_introspection: bool = False


@dataclasses.dataclass
class ClassInfo:
    name: str
    line: int
    col: int
    #: alias-resolved base expressions (dotted, best effort)
    bases: List[str] = dataclasses.field(default_factory=list)
    #: last segment of each base (the name-level join RL008/RL013 use)
    base_tails: List[str] = dataclasses.field(default_factory=list)
    is_dataclass: bool = False
    is_abstract: bool = False
    #: annotated (dataclass) fields declared in this class body
    fields: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    #: attribute name -> dotted class, from annotations / __init__
    attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)
    methods: List[str] = dataclasses.field(default_factory=list)
    #: own ``__init__`` signature: {"varargs": bool, "params": [...]}
    init_sig: Optional[Dict[str, object]] = None


@dataclasses.dataclass
class ModuleSummary:
    """Everything the interprocedural rules need from one file."""

    relpath: str
    modname: str
    is_package: bool
    #: every ``import`` binding of the file: local name -> module
    aliases: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: every from-import binding of the file: local name -> (module, name)
    from_names: Dict[str, Tuple[str, str]] = dataclasses.field(default_factory=dict)
    #: top-level from-import bindings: local name -> absolute dotted
    exports: Dict[str, str] = dataclasses.field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    #: top-level class definitions in file order (RL008): (name, line, col)
    top_level_classes: List[Tuple[str, int, int]] = dataclasses.field(
        default_factory=list
    )
    #: top-level ``NAME = <expr>`` assigns (RL005): (name, expr, line, col)
    consts: List[Tuple[str, ast.expr, int, int]] = dataclasses.field(
        default_factory=list
    )
    #: class names listed as _FACTORIES values (RL008)
    factories: List[str] = dataclasses.field(default_factory=list)
    #: class names passed to register_method() (RL008)
    register_calls: List[str] = dataclasses.field(default_factory=list)
    registry_present: bool = False
    #: process-pool submit sites (RL012)
    submits: List[Dict[str, object]] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# summary construction


class _ModuleContext:
    """Name-resolution context shared by every scope of one file."""

    def __init__(self, relpath: str, tree: ast.Module):
        self.modname, self.is_package = module_name(relpath)
        self.aliases, self.from_names = _import_aliases(
            tree, self.modname, self.is_package
        )
        self.top_defs: Set[str] = {
            stmt.name
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }

    def resolve(self, dotted: str) -> Optional[str]:
        """Absolute dotted target of a name used in this module."""
        head, _, rest = dotted.partition(".")
        if head in self.top_defs:
            return f"{self.modname}.{dotted}"
        if head in self.aliases:
            base = self.aliases[head]
            return f"{base}.{rest}" if rest else base
        if head in self.from_names:
            mod, orig = self.from_names[head]
            qualified = f"{mod}.{orig}"
            return f"{qualified}.{rest}" if rest else qualified
        return None

    def resolve_annotation(self, node: Optional[ast.AST]) -> Optional[str]:
        """Dotted class named by a plain annotation (no subscripts)."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.strip("'\" ")
            return self.resolve(text) or text if text.isidentifier() or "." in text else None
        dotted = _dotted(node)
        if dotted is None:
            return None
        return self.resolve(dotted) or dotted


def _walk_shallow(body: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested class scopes.

    Nested *functions* are entered (their behaviour belongs to the
    enclosing function for call-graph purposes); nested classes get
    their own summary entries.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _decorator_names(node: ast.AST) -> Iterator[str]:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = _dotted(target)
        if dotted:
            yield dotted


def _local_var_types(
    body: Sequence[ast.AST], ctx: _ModuleContext, args: Optional[ast.arguments]
) -> Dict[str, str]:
    """var name -> dotted class, from annotations and constructor calls."""
    types: Dict[str, str] = {}
    if args is not None:
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            resolved = ctx.resolve_annotation(arg.annotation)
            if resolved:
                types[arg.arg] = resolved
    for node in _walk_shallow(body):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            resolved = ctx.resolve_annotation(node.annotation)
            if resolved:
                types[node.target.id] = resolved
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                dotted = _dotted(node.value.func)
                resolved = ctx.resolve(dotted) if dotted else None
                if resolved:
                    types[target.id] = resolved
    return types


def _extract_calls(
    info: FunctionInfo,
    body: Sequence[ast.AST],
    ctx: _ModuleContext,
    cls: Optional[ClassInfo],
    args: Optional[ast.arguments],
) -> None:
    """Fill ``info`` with call records, taint sources and self reads."""
    var_types = _local_var_types(body, ctx, args)
    rng_vars = _rng_vars(body, ctx)
    for node in _walk_shallow(body):
        if isinstance(node, ast.Name):
            if node.id == "_FORK_SHARED" and isinstance(node.ctx, ast.Load):
                info.reads_fork_shared = True
            continue
        if isinstance(node, ast.Attribute):
            if (
                cls is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)
                and node.attr not in info.self_reads
            ):
                info.self_reads.append(node.attr)
            continue
        if not isinstance(node, ast.Call):
            continue
        _record_bad_calls(info, node, ctx, rng_vars)
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if parts[0] == "self" and cls is not None:
            if len(parts) == 2:
                info.calls.append(
                    {"via": "self", "cls": cls.name, "attr": parts[1],
                     "line": node.lineno, "col": node.col_offset}
                )
            elif len(parts) == 3 and parts[1] in cls.attr_types:
                info.calls.append(
                    {"via": "type", "cls": cls.attr_types[parts[1]],
                     "attr": parts[2], "line": node.lineno,
                     "col": node.col_offset}
                )
            continue
        if len(parts) == 2 and parts[0] in var_types:
            info.calls.append(
                {"via": "type", "cls": var_types[parts[0]], "attr": parts[1],
                 "line": node.lineno, "col": node.col_offset}
            )
            continue
        resolved = ctx.resolve(dotted)
        if resolved is not None:
            info.calls.append(
                {"via": "name", "target": resolved, "line": node.lineno,
                 "col": node.col_offset}
            )
            if resolved == "dataclasses.fields":
                info.fields_introspection = True


def _rng_vars(body: Sequence[ast.AST], ctx: _ModuleContext) -> Set[str]:
    """Local names bound to ``random.Random(...)`` instances."""
    rng: Set[str] = set()
    for node in _walk_shallow(body):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            dotted = _dotted(node.value.func)
            if dotted and ctx.resolve(dotted) == "random.Random":
                rng.add(node.targets[0].id)
    return rng


def _record_bad_calls(
    info: FunctionInfo, node: ast.Call, ctx: _ModuleContext, rng_vars: Set[str]
) -> None:
    """Detect direct nondeterminism sources at this call site."""
    dotted = _dotted(node.func)
    resolved = ctx.resolve(dotted) if dotted else None

    def bad(kind: str, label: str) -> None:
        info.bad_calls.append(
            {"kind": kind, "label": label, "line": node.lineno,
             "col": node.col_offset}
        )

    if resolved in WALL_CLOCK_CALLS:
        bad(_TAINT_WALL_CLOCK, WALL_CLOCK_CALLS[resolved])
        return
    if resolved is not None and resolved.startswith("random."):
        attr = resolved.split(".", 1)[1]
        if attr not in RANDOM_ALLOWED:
            bad(_TAINT_UNSEEDED, f"random.{attr}()")
            return
        if attr == "Random" and not node.args and not node.keywords:
            bad(_TAINT_UNSEEDED, "random.Random() without a seed")
            return
    # instance reseeding from OS entropy: rng.seed() with no arguments
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "seed"
        and not node.args
        and not node.keywords
    ):
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id in rng_vars:
            bad(_TAINT_UNSEEDED, f"{receiver.id}.seed() with no arguments")
        elif isinstance(receiver, ast.Call):
            inner = _dotted(receiver.func)
            if inner and ctx.resolve(inner) == "random.Random":
                bad(_TAINT_UNSEEDED, "Random(...).seed() with no arguments")


def _class_info(node: ast.ClassDef, ctx: _ModuleContext) -> ClassInfo:
    decorators = list(_decorator_names(node))
    cls = ClassInfo(
        name=node.name,
        line=node.lineno,
        col=node.col_offset,
        bases=[ctx.resolve(_dotted(b) or "") or (_dotted(b) or "") for b in node.bases],
        base_tails=[(_dotted(b) or "").split(".")[-1] for b in node.bases],
        is_dataclass=any(d.split(".")[-1] == "dataclass" for d in decorators),
    )
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            annotation = ast.dump(item.annotation)
            resolved = ctx.resolve_annotation(item.annotation)
            if "ClassVar" not in annotation:
                cls.fields.append(
                    {"name": item.target.id, "line": item.lineno,
                     "col": item.col_offset}
                )
            if resolved:
                cls.attr_types[item.target.id] = resolved
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods.append(item.name)
            if any(
                "abstractmethod" in d for d in _decorator_names(item)
            ):
                cls.is_abstract = True
            if item.name == "__init__":
                cls.init_sig = _init_signature(item)
                _self_attr_types(item, ctx, cls)
    return cls


def _init_signature(init: ast.FunctionDef) -> Dict[str, object]:
    args = init.args
    params = [a.arg for a in list(args.posonlyargs) + list(args.args)][1:]
    params += [a.arg for a in args.kwonlyargs]
    return {
        "varargs": args.vararg is not None or args.kwarg is not None,
        "params": params,
    }


def _self_attr_types(
    init: ast.FunctionDef, ctx: _ModuleContext, cls: ClassInfo
) -> None:
    """``self.x = ClassName(...)`` / ``self.x: T`` inside __init__."""
    for node in ast.walk(init):
        target = None
        resolved = None
        if isinstance(node, ast.AnnAssign):
            target = node.target
            resolved = ctx.resolve_annotation(node.annotation)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(node.value, ast.Call):
                dotted = _dotted(node.value.func)
                resolved = ctx.resolve(dotted) if dotted else None
        if (
            resolved
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr not in cls.attr_types
        ):
            cls.attr_types[target.attr] = resolved


def build_summary(relpath: str, tree: ast.Module) -> ModuleSummary:
    """Distil one parsed file into its :class:`ModuleSummary`."""
    ctx = _ModuleContext(relpath, tree)
    summary = ModuleSummary(
        relpath=relpath, modname=ctx.modname, is_package=ctx.is_package,
        aliases=ctx.aliases, from_names=ctx.from_names,
    )
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level > 0:
                package = _relative_base(ctx.modname, ctx.is_package, stmt.level)
                if package is None:
                    continue
                base = f"{package}.{stmt.module}" if stmt.module else package
            if base:
                for alias in stmt.names:
                    if alias.name != "*":
                        summary.exports[alias.asname or alias.name] = (
                            f"{base}.{alias.name}"
                        )
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                summary.consts.append(
                    (target.id, stmt.value, stmt.lineno, stmt.col_offset)
                )

    # classes first: self-dispatch and attr types need them in scope
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            summary.classes.setdefault(node.name, _class_info(node, ctx))
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            summary.top_level_classes.append(
                (stmt.name, stmt.lineno, stmt.col_offset)
            )

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=stmt.name, line=stmt.lineno, col=stmt.col_offset
            )
            _extract_calls(info, stmt.body, ctx, None, stmt.args)
            _collect_submits(summary, info.qualname, stmt, ctx)
            summary.functions[info.qualname] = info
        elif isinstance(stmt, ast.ClassDef):
            cls = summary.classes[stmt.name]
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        qualname=f"{stmt.name}.{item.name}",
                        line=item.lineno,
                        col=item.col_offset,
                    )
                    _extract_calls(info, item.body, ctx, cls, item.args)
                    _collect_submits(summary, info.qualname, item, ctx)
                    summary.functions[info.qualname] = info

    _collect_registry_facts(summary, tree)
    return summary


def _collect_registry_facts(summary: ModuleSummary, tree: ast.Module) -> None:
    """RL008 inputs: _FACTORIES values and register_method() calls."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if (
                len(targets) == 1
                and isinstance(targets[0], ast.Name)
                and targets[0].id == "_FACTORIES"
                and isinstance(node.value, ast.Dict)
            ):
                summary.registry_present = True
                for value in node.value.values:
                    name = (_dotted(value) or "").split(".")[-1]
                    if name:
                        summary.factories.append(name)
        elif isinstance(node, ast.Call):
            callee = (_dotted(node.func) or "").split(".")[-1]
            if callee == "register_method" and len(node.args) >= 2:
                summary.registry_present = True
                name = (_dotted(node.args[1]) or "").split(".")[-1]
                if name:
                    summary.register_calls.append(name)


# ----------------------------------------------------------------------
# RL012 submit-site collection


def _contains_fork_constant(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Constant) and n.value == "fork" for n in ast.walk(node)
    )


def _classify_arg(
    node: ast.AST,
    ctx: _ModuleContext,
    nested_defs: Set[str],
    open_vars: Set[str],
    buffer_vars: Set[str],
) -> Dict[str, object]:
    """How picklable-by-construction one submit argument is."""

    def desc(kind: str, name: str, target: Optional[str] = None) -> Dict[str, object]:
        return {"kind": kind, "name": name, "target": target,
                "line": getattr(node, "lineno", 0),
                "col": getattr(node, "col_offset", 0)}

    if isinstance(node, ast.Lambda):
        return desc("lambda", "<lambda>")
    if isinstance(node, ast.Name):
        if node.id in nested_defs:
            return desc("nested_func", node.id)
        if node.id in open_vars:
            return desc("open_handle", node.id)
        if node.id in buffer_vars:
            return desc("buffer_log", node.id)
        resolved = ctx.resolve(node.id)
        if resolved is not None:
            return desc("module_func", node.id, resolved)
        return desc("other", node.id)
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func) or ""
        resolved = ctx.resolve(dotted) or dotted
        tail = resolved.split(".")[-1]
        two_tail = ".".join(resolved.split(".")[-2:])
        if resolved == "open" or tail == "open":
            return desc("open_handle", dotted or "open(...)")
        if tail in BUFFER_LOG_MAKERS or two_tail in BUFFER_LOG_MAKERS:
            return desc("buffer_log", dotted or "<call>")
        return desc("other", dotted or "<call>")
    return desc("other", "<expr>")


def _collect_submits(
    summary: ModuleSummary,
    qualname: str,
    func: ast.AST,
    ctx: _ModuleContext,
) -> None:
    """Record ProcessPoolExecutor.submit sites inside one function."""
    body = getattr(func, "body", [])
    executors: Set[str] = set()
    guarded_names: Set[str] = set()
    nested_defs: Set[str] = set()
    open_vars: Set[str] = set()
    buffer_vars: Set[str] = set()
    for node in _walk_shallow(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            nested_defs.add(node.name)
        elif isinstance(node, ast.withitem):
            call = node.context_expr
            if (
                isinstance(call, ast.Call)
                and (_dotted(call.func) or "").split(".")[-1] == "ProcessPoolExecutor"
                and isinstance(node.optional_vars, ast.Name)
            ):
                executors.add(node.optional_vars.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(node.value, ast.Call):
                tail = (_dotted(node.value.func) or "").split(".")[-1]
                resolved = ctx.resolve(_dotted(node.value.func) or "") or ""
                two_tail = ".".join(resolved.split(".")[-2:]) if resolved else ""
                if tail == "ProcessPoolExecutor":
                    executors.add(target.id)
                elif tail == "open":
                    open_vars.add(target.id)
                elif tail in BUFFER_LOG_MAKERS or two_tail in BUFFER_LOG_MAKERS:
                    buffer_vars.add(target.id)
            if _contains_fork_constant(node.value):
                guarded_names.add(target.id)
    if not executors:
        return

    def guard_in_test(test: ast.AST) -> bool:
        if _contains_fork_constant(test):
            return True
        return any(
            isinstance(n, ast.Name) and n.id in guarded_names
            for n in ast.walk(test)
        )

    def scan(stmts: Sequence[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                scan(stmt.body, guarded or guard_in_test(stmt.test))
                scan(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                scan(stmt.body, guarded)
                scan(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                scan(stmt.body, guarded)
            elif isinstance(stmt, ast.Try):
                for part in (stmt.body, stmt.orelse, stmt.finalbody):
                    scan(part, guarded)
                for handler in stmt.handlers:
                    scan(handler.body, guarded)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(stmt.body, guarded)
            else:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "submit"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in executors
                        and node.args
                    ):
                        classify = lambda a: _classify_arg(  # noqa: E731
                            a, ctx, nested_defs, open_vars, buffer_vars
                        )
                        summary.submits.append(
                            {
                                "function": qualname,
                                "line": node.lineno,
                                "col": node.col_offset,
                                "guarded": guarded,
                                "func": classify(node.args[0]),
                                "args": [classify(a) for a in node.args[1:]],
                            }
                        )

    scan(body, False)


# ----------------------------------------------------------------------
# the call graph


class CallGraph:
    """Symbol table + resolved call edges over one lint run."""

    def __init__(self, summaries: Sequence[ModuleSummary]):
        self.summaries: List[ModuleSummary] = list(summaries)
        self.by_modname: Dict[str, ModuleSummary] = {}
        #: "modname.qualname" -> (summary, FunctionInfo)
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionInfo]] = {}
        for summary in self.summaries:
            self.by_modname.setdefault(summary.modname, summary)
            for qualname, info in summary.functions.items():
                self.functions.setdefault(f"{summary.modname}.{qualname}", (summary, info))
        self._module_cache: Dict[str, Optional[Tuple[ModuleSummary, str]]] = {}
        self._edges: Optional[Dict[str, List[Tuple[str, Dict[str, object]]]]] = None

    # -- symbol resolution --------------------------------------------

    def _resolve_module(self, dotted: str) -> Optional[Tuple[ModuleSummary, str]]:
        """(module summary, remainder) for the longest module prefix."""
        if dotted in self._module_cache:
            return self._module_cache[dotted]
        parts = dotted.split(".")
        result: Optional[Tuple[ModuleSummary, str]] = None
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            rest = ".".join(parts[i:])
            if prefix in self.by_modname:
                result = (self.by_modname[prefix], rest)
                break
            suffix_hits = [
                m for m in self.by_modname if m.endswith("." + prefix)
            ]
            if len(suffix_hits) == 1:
                result = (self.by_modname[suffix_hits[0]], rest)
                break
        self._module_cache[dotted] = result
        return result

    def mro_method(
        self, modname: str, clsname: str, attr: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Symbol of ``attr`` on class ``clsname``, walking bases."""
        seen = _seen if _seen is not None else set()
        key = f"{modname}.{clsname}"
        if key in seen:
            return None
        seen.add(key)
        summary = self.by_modname.get(modname)
        if summary is None or clsname not in summary.classes:
            return None
        cls = summary.classes[clsname]
        if attr in cls.methods:
            return f"{modname}.{clsname}.{attr}"
        for base in cls.bases:
            resolved = self.resolve_class(base)
            if resolved is None:
                continue
            base_mod, base_cls = resolved
            found = self.mro_method(base_mod, base_cls, attr, seen)
            if found is not None:
                return found
        return None

    def resolve_class(self, dotted: str) -> Optional[Tuple[str, str]]:
        """(modname, classname) a dotted class reference points at."""
        hit = self._resolve_module(dotted)
        if hit is None:
            return None
        summary, rest = hit
        if not rest:
            return None
        parts = rest.split(".")
        if parts[0] in summary.classes and len(parts) == 1:
            return summary.modname, parts[0]
        if parts[0] in summary.exports:
            target = summary.exports[parts[0]]
            if len(parts) > 1:
                target = f"{target}.{'.'.join(parts[1:])}"
            return self.resolve_class(target)
        return None

    def resolve_call(self, call: Dict[str, object], depth: int = 0) -> List[str]:
        """Project function symbols one call record can land on."""
        if depth > 8:
            return []
        via = call.get("via")
        if via == "self" or via == "type":
            cls = str(call["cls"])
            attr = str(call["attr"])
            if via == "self":
                # the class is local to the calling module; the caller
                # stores its summary modname alongside
                modname = str(call.get("mod", ""))
                found = self.mro_method(modname, cls, attr)
            else:
                resolved = self.resolve_class(cls)
                found = (
                    self.mro_method(resolved[0], resolved[1], attr)
                    if resolved
                    else None
                )
            return [found] if found else []
        target = str(call.get("target", ""))
        return self.resolve_name(target, depth)

    def resolve_name(self, dotted: str, depth: int = 0) -> List[str]:
        """Project function symbols a dotted name call points at."""
        if depth > 8 or not dotted:
            return []
        hit = self._resolve_module(dotted)
        if hit is None:
            return []
        summary, rest = hit
        if not rest:
            return []
        parts = rest.split(".")
        qual = ".".join(parts)
        if qual in summary.functions:
            return [f"{summary.modname}.{qual}"]
        head = parts[0]
        if head in summary.classes:
            if len(parts) == 1:
                # constructor: edges into __init__ / __post_init__
                out = []
                for ctor in ("__init__", "__post_init__"):
                    found = self.mro_method(summary.modname, head, ctor)
                    if found:
                        out.append(found)
                return out
            if len(parts) == 2:
                found = self.mro_method(summary.modname, head, parts[1])
                return [found] if found else []
            return []
        if head in summary.exports:
            target = summary.exports[head]
            if len(parts) > 1:
                target = f"{target}.{'.'.join(parts[1:])}"
            return self.resolve_name(target, depth + 1)
        return []

    # -- edges ---------------------------------------------------------

    @property
    def edges(self) -> Dict[str, List[Tuple[str, Dict[str, object]]]]:
        """caller symbol -> [(callee symbol, call record)], resolved."""
        if self._edges is None:
            self._edges = {}
            for symbol, (summary, info) in self.functions.items():
                out: List[Tuple[str, Dict[str, object]]] = []
                for call in info.calls:
                    record = call
                    if call.get("via") == "self" and "mod" not in call:
                        record = dict(call, mod=summary.modname)
                    for callee in self.resolve_call(record):
                        out.append((callee, call))
                self._edges[symbol] = out
        return self._edges

    def entry_symbols(self, patterns: Sequence[str]) -> List[str]:
        """Function symbols matching dotted-suffix entry patterns."""
        out = []
        for symbol in sorted(self.functions):
            for pattern in patterns:
                if symbol == pattern or symbol.endswith("." + pattern):
                    out.append(symbol)
                    break
        return out
