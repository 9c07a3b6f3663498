"""Batch kernels for the replay/partitioning hot path.

The kernels operate directly on the dense columns
:class:`repro.graph.columnar.ColumnarLog` exposes (timestamps, interned
src/dst indices, transaction ids, kind codes) and return plain
python/array values the engine folds back into its data structures.
Every kernel has a ``pure`` reference form; where numpy imports, the
``numpy`` backend replaces the kernels it measurably accelerates and
reuses the rest (see :mod:`repro.kernels.backend`).  Both backends are
bit-identical to the reference, including every ordering the
downstream graphs observe (``docs/kernels.md`` spells out the
contract).

Hot-path callers grab the backend module once per window/pass::

    from repro import kernels
    kr = kernels.active()
    batch = kr.window_pass(ts, src, dst, tx, sk, dk, lo, hi, state)

This package deliberately imports nothing from the rest of ``repro``
(the graph/metis/core layers import *it*).
"""

from repro.kernels.backend import (
    active,
    available_backends,
    backend_name,
    using_backend,
)
from repro.kernels.types import (
    PACK_MASK,
    PACK_SHIFT,
    GainBuckets,
    StreamState,
    WindowBatch,
)

__all__ = [
    "GainBuckets",
    "PACK_MASK",
    "PACK_SHIFT",
    "StreamState",
    "WindowBatch",
    "active",
    "available_backends",
    "backend_name",
    "using_backend",
]
