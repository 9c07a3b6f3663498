"""Name → method factory, used by the CLI, benchmarks and figures.

Names match the paper's figure legends: ``hash``, ``kl``, ``metis``,
``p-metis`` (= ``r-metis``), ``tr-metis``.

The registry is also the introspection point of the declarative
experiment API (:mod:`repro.experiments`): :func:`method_params`
exposes each factory's accepted keyword parameters so
``MethodSpec.parse("tr-metis?warm=true")`` can validate parameterised
variants up front, and :func:`make_method` rejects unknown parameters
with an error that names the method and what it does accept instead of
an opaque ``TypeError`` from the factory.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import PartitionMethod
from repro.core.fennel import FennelPartitioner
from repro.core.hashing import HashPartitioner
from repro.core.kl import KLPartitioner
from repro.core.metis_method import MetisPartitioner
from repro.core.rmetis import RMetisPartitioner
from repro.core.trmetis import TRMetisPartitioner

_FACTORIES: Dict[str, Callable[..., PartitionMethod]] = {
    "hash": HashPartitioner,
    "kl": KLPartitioner,
    "metis": MetisPartitioner,
    "r-metis": RMetisPartitioner,
    "p-metis": RMetisPartitioner,   # the paper's Figs. 4-5 label
    "tr-metis": TRMetisPartitioner,
    "fennel": FennelPartitioner,    # extension: streaming placement
}

#: Canonical order used in the paper's figures (1=HASH ... 5=TR-METIS).
PAPER_ORDER: List[str] = ["hash", "kl", "metis", "p-metis", "tr-metis"]

#: Names baked into this module (available in any freshly-imported
#: interpreter, e.g. spawn-started worker processes), as opposed to
#: runtime :func:`register_method` registrations.  Re-registering a
#: built-in name removes it from this set: a spawn worker would
#: resolve the original factory, not the override.
_BUILTIN_NAMES = set(_FACTORIES)


def is_builtin_method(name: str) -> bool:
    """True when the name resolves without runtime registration."""
    return name.lower() in _BUILTIN_NAMES

#: Constructor arguments every method shares; they are experiment-level
#: (the shard count and the replay seed), not method parameters.
_RESERVED_PARAMS = ("k", "seed")


def available_methods() -> List[str]:
    """All accepted method names."""
    return sorted(_FACTORIES)


def register_method(name: str, factory: Callable[..., PartitionMethod]) -> None:
    """Register a custom method under ``name`` (lower-cased).

    The factory must accept ``(k, seed=..., **params)`` like the
    built-in methods; once registered it is reachable from method
    strings (``"my-method?alpha=2"``), the CLI and experiment specs.
    Re-registering an existing name replaces it.
    """
    _FACTORIES[name.lower()] = factory
    _BUILTIN_NAMES.discard(name.lower())


def method_params(name: str) -> Tuple[str, ...]:
    """Keyword parameters the named method's factory accepts.

    ``k`` and ``seed`` are excluded: they are experiment-level knobs
    supplied by the grid, not method parameters.
    """
    factory = _resolve(name)
    params = []
    for p in inspect.signature(factory).parameters.values():
        if p.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD):
            continue
        if p.name in _RESERVED_PARAMS:
            continue
        params.append(p.name)
    return tuple(params)


def method_accepts_any_params(name: str) -> bool:
    """True when the factory takes ``**kwargs`` (custom registrations),
    so parameter names cannot be validated up front."""
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in inspect.signature(_resolve(name)).parameters.values()
    )


def result_name(name: str) -> Optional[str]:
    """The method name a replay of the named method records in its
    results: the factory's ``name`` (``"r-metis"`` for ``p-metis``),
    or None for a factory without one."""
    return getattr(_resolve(name), "name", None)


def _resolve(name: str) -> Callable[..., PartitionMethod]:
    try:
        return _FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; available: {', '.join(available_methods())}"
        ) from None


def make_method(name: str, k: int, seed: int = 0, **kwargs) -> PartitionMethod:
    """Instantiate a partitioning method by its figure-legend name.

    Unknown keyword parameters raise a :class:`ValueError` naming the
    method and its accepted parameters.
    """
    factory = _resolve(name)
    if method_accepts_any_params(name):
        # factory takes **kwargs (custom registrations): let it validate
        return factory(k, seed=seed, **kwargs)
    accepted = method_params(name)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ValueError(
            f"method {name.lower()!r} got unknown parameter(s) "
            f"{', '.join(unknown)}; accepted: {', '.join(accepted) or '(none)'}"
        )
    return factory(k, seed=seed, **kwargs)
