"""Kernel backend selection.

Two backends implement the same kernel surface:

``pure``
    Per-row transliterations of the legacy loops; the bit-identity
    oracle, and the backend wherever numpy does not import.
``numpy``
    Vectorised forms of the kernels in its ``ACCELERATED`` set; every
    other kernel name is the ``pure`` object itself.  Optional —
    install with ``pip install .[numpy]``.

The backend is a fact about the platform: ``numpy`` when numpy is
importable, else ``pure``.  Resolution is lazy and cached; tests and
benchmarks compare the two with :func:`using_backend`.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import List, Optional

_MODULES = {
    "pure": "repro.kernels.pure",
    "numpy": "repro.kernels.numpykernels",
}

_active_name: Optional[str] = None
_active_module = None


def _numpy_usable() -> bool:
    try:
        importlib.import_module("numpy")
    except ImportError:
        return False
    return True


def backend_name() -> str:
    """Name of the active backend, resolving it on first use."""
    global _active_name
    if _active_name is None:
        _active_name = "numpy" if _numpy_usable() else "pure"
    return _active_name


def active():
    """The active backend module (resolved lazily, cached)."""
    global _active_module
    if _active_module is None:
        _active_module = importlib.import_module(_MODULES[backend_name()])
    return _active_module


@contextmanager
def using_backend(name: str):
    """Temporarily switch backends (tests, benchmarks).

    The backend is imported before any state changes, so a switch that
    fails leaves the active backend as it was.
    """
    global _active_name, _active_module
    if name not in _MODULES:
        raise ValueError(f"unknown kernel backend {name!r}")
    module = importlib.import_module(_MODULES[name])
    prev_name, prev_module = _active_name, _active_module
    _active_name, _active_module = name, module
    try:
        yield module
    finally:
        _active_name, _active_module = prev_name, prev_module


def available_backends() -> List[str]:
    """Backends importable in this environment, in preference order."""
    return ["pure", "numpy"] if _numpy_usable() else ["pure"]
