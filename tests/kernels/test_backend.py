"""Kernel backend selection: resolution, failed switches, aliasing.

numpy is blocked inside each test that needs it gone
(``sys.modules["numpy"] = None``), never module-wide: Hypothesis seeds
numpy's RNG whenever ``"numpy"`` is in ``sys.modules``.
"""

import sys

import pytest

from repro import kernels
from repro.kernels import backend, pure


def _numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _block_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "repro.kernels.numpykernels",
                        raising=False)


def _unresolve(monkeypatch):
    monkeypatch.setattr(backend, "_active_name", None)
    monkeypatch.setattr(backend, "_active_module", None)


def test_failed_switch_leaves_backend_unchanged(monkeypatch):
    _block_numpy(monkeypatch)
    with kernels.using_backend("pure"):
        with pytest.raises(ImportError):
            with kernels.using_backend("numpy"):
                pass
        assert kernels.backend_name() == "pure"
        assert kernels.active() is pure


def test_backend_follows_numpy_importability(monkeypatch):
    expected = ["pure", "numpy"] if _numpy_importable() else ["pure"]
    _unresolve(monkeypatch)
    assert kernels.available_backends() == expected
    assert kernels.backend_name() == expected[-1]

    _block_numpy(monkeypatch)
    _unresolve(monkeypatch)
    assert kernels.available_backends() == ["pure"]
    assert kernels.backend_name() == "pure"
    assert kernels.active() is pure


def test_own_forms_exist_only_for_accelerated_kernels():
    # every backend exposes the full kernel surface by name, and a name
    # is not the pure object exactly when the backend claims (and the
    # microloop gate checks) a speedup for it
    for name in kernels.available_backends():
        with kernels.using_backend(name) as module:
            claimed = getattr(module, "ACCELERATED", frozenset())
            assert set(module.__all__) - {"ACCELERATED"} == set(pure.__all__)
            assert claimed <= set(pure.__all__)
            for kernel in pure.__all__:
                own_form = getattr(module, kernel) is not getattr(pure, kernel)
                assert own_form == (kernel in claimed), f"{name}.{kernel}"
