"""Columnar interaction log: the shared storage of multi-method replays.

A replay that compares k partitioning methods consumes the *same*
time-ordered interaction log k times.  Keeping that log as a list of
:class:`~repro.graph.builder.Interaction` objects is convenient but
heavy: every field access is an attribute lookup and every window query
is a linear scan.  :class:`ColumnarLog` stores the log as parallel
arrays —

* ``timestamp`` as a C double array,
* ``src`` / ``dst`` as *interned* dense vertex indices (C int64),
* ``tx_id`` as C int64,
* vertex kinds as one byte per endpoint,

— so the log of N interactions with V distinct vertices costs
O(N * ~34 bytes + V ids) instead of N boxed objects, and any time
window resolves to an index range with two bisects (O(log N)) instead
of a scan.

Interning gives every raw vertex id (an Ethereum address) a dense
index in first-appearance order; dense indices are what array-based
consumers (partitioners, accelerator kernels) want, and
:meth:`vertex_id` / :meth:`vertex_index` translate both ways.

The log is append-only and must stay time-ordered.  It is the one
form of the log inside the library: the workload generator appends to
one (:attr:`GraphBuilder.log <repro.graph.builder.GraphBuilder.log>`),
the trace loaders return one, and the replay engine streams one.

Two construction paths share the same read surface:

* the **builder path** (``__init__`` / ``append`` / ``extend``) owns
  mutable ``array`` columns and interns vertices as they appear;
* the **buffer path** (:meth:`ColumnarLog.from_buffers`) wraps
  already-materialised column buffers — typically ``memoryview`` casts
  over an ``mmap``-ed rctrace-v2 file (:func:`repro.graph.io.
  load_columnar`) — *without copying*.  Buffer-backed logs are
  read-only (``append`` raises), and the raw-id → dense-index dict is
  built lazily on the first reverse lookup, so a replay that only ever
  streams windows never pays for it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

from repro.graph.builder import Interaction
from repro.graph.digraph import VertexKind

#: Stable byte codes for vertex kinds (order = enum definition order).
_KIND_LIST: Tuple[VertexKind, ...] = tuple(VertexKind)
_KIND_CODE: Dict[VertexKind, int] = {k: i for i, k in enumerate(_KIND_LIST)}


class ColumnarLog:
    """Parallel-array interaction log with interned vertex ids."""

    __slots__ = (
        "_ts", "_src", "_dst", "_tx",
        "_src_kind", "_dst_kind",
        "_vertex_ids", "_vertex_index",
        "_backing", "_writable",
    )

    def __init__(self, interactions: Iterable[Interaction] = ()) -> None:
        self._ts = array("d")
        self._src = array("q")
        self._dst = array("q")
        self._tx = array("q")
        self._src_kind = array("b")
        self._dst_kind = array("b")
        self._vertex_ids: List[int] = []       # dense index -> raw id
        self._vertex_index: Optional[Dict[int, int]] = {}  # raw id -> dense index
        self._backing = None                   # keeps an mmap/buffer alive
        self._writable = True
        self.extend(interactions)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_interactions(cls, interactions: Iterable[Interaction]) -> "ColumnarLog":
        """Build a columnar log from an Interaction sequence."""
        return cls(interactions)

    @classmethod
    def from_buffers(
        cls,
        *,
        timestamps: Sequence[float],
        src: Sequence[int],
        dst: Sequence[int],
        tx: Sequence[int],
        src_kind: Sequence[int],
        dst_kind: Sequence[int],
        vertex_ids: Sequence[int],
        backing: object = None,
    ) -> "ColumnarLog":
        """Wrap pre-materialised column buffers without copying.

        Every column is any random-access sequence of the right element
        type — in the hot path, ``memoryview`` casts over an ``mmap``-ed
        trace file (see :func:`repro.graph.io.load_columnar`), so
        construction is O(1) regardless of log size.  ``src``/``dst``
        hold *dense* vertex indices into ``vertex_ids`` and the kind
        columns hold the byte codes of :class:`VertexKind` in enum
        definition order, exactly as the builder path stores them.

        The resulting log is read-only (:meth:`append` raises
        ``TypeError``; re-box with ``ColumnarLog(log)`` to get an
        appendable copy) and builds its raw-id → dense-index dict
        lazily on the first :meth:`vertex_index` lookup.  ``backing``
        is retained only to keep the underlying mmap/file object alive
        for the lifetime of the log.

        Callers own the invariants the builder path enforces
        incrementally (time-ordered timestamps, in-range indices);
        :func:`~repro.graph.io.load_columnar` verifies them on load.
        """
        n = len(timestamps)
        for name, col in (("src", src), ("dst", dst), ("tx", tx),
                          ("src_kind", src_kind), ("dst_kind", dst_kind)):
            if len(col) != n:
                raise ValueError(
                    f"column length mismatch: {name} has {len(col)} rows, "
                    f"timestamps has {n}"
                )
        log = cls.__new__(cls)
        log._ts = timestamps
        log._src = src
        log._dst = dst
        log._tx = tx
        log._src_kind = src_kind
        log._dst_kind = dst_kind
        log._vertex_ids = vertex_ids
        log._vertex_index = None   # built lazily on first reverse lookup
        log._backing = backing
        log._writable = False
        return log

    @property
    def is_writable(self) -> bool:
        """Whether this log owns appendable columns (builder path).

        Buffer-backed logs are read-only even when handed ``array``
        columns — the caller's buffers are borrowed, never owned.
        """
        return self._writable

    def _index(self) -> Dict[int, int]:
        """The raw-id → dense-index dict, materialised on demand."""
        if self._vertex_index is None:
            self._vertex_index = {
                v: i for i, v in enumerate(self._vertex_ids)
            }
        return self._vertex_index

    def intern(self, vertex: int) -> int:
        """Dense index of a raw vertex id, allocating one if new."""
        index = self._index()
        idx = index.get(vertex)
        if idx is None:
            if not self.is_writable:
                raise TypeError(
                    f"cannot intern new vertex {vertex!r}: buffer-backed "
                    "ColumnarLog is read-only (copy with ColumnarLog(log) "
                    "to get an appendable log)"
                )
            idx = len(self._vertex_ids)
            index[vertex] = idx
            self._vertex_ids.append(vertex)
        return idx

    def append(self, it: Interaction) -> None:
        """Append one interaction; rejects out-of-order timestamps.

        The log is append-only and time-ordered (the contract every
        window bisect and every incremental consumer relies on); an
        interaction older than the current tail is rejected with the
        offending row position so the caller can locate the bad record.
        Buffer-backed logs (:meth:`from_buffers`) are read-only.
        """
        if not self.is_writable:
            raise TypeError(
                "buffer-backed ColumnarLog is read-only (copy with "
                "ColumnarLog(log) to get an appendable log)"
            )
        ts = self._ts
        if ts and it.timestamp < ts[-1]:
            raise ValueError(
                f"out-of-order interaction at row {len(ts)}: "
                f"timestamp {it.timestamp} < log tail {ts[-1]} "
                "(the log is append-only in time order)"
            )
        ts.append(it.timestamp)
        self._src.append(self.intern(it.src))
        self._dst.append(self.intern(it.dst))
        self._tx.append(it.tx_id)
        self._src_kind.append(_KIND_CODE[it.src_kind])
        self._dst_kind.append(_KIND_CODE[it.dst_kind])

    def extend(self, interactions: Iterable[Interaction]) -> int:
        """Append a stream of interactions; returns how many were added."""
        n = 0
        for it in interactions:
            self.append(it)
            n += 1
        return n

    # ------------------------------------------------------------------
    # interning queries

    @property
    def num_vertices(self) -> int:
        """Distinct vertices seen so far."""
        return len(self._vertex_ids)

    def vertex_id(self, index: int) -> int:
        """Raw vertex id of a dense index."""
        return self._vertex_ids[index]

    def vertex_index(self, vertex: int) -> int:
        """Dense index of a raw vertex id (KeyError if never seen)."""
        return self._index()[vertex]

    def vertex_ids(self) -> Sequence[int]:
        """All raw vertex ids in first-appearance (dense-index) order."""
        return tuple(self._vertex_ids)

    # ------------------------------------------------------------------
    # row access

    def __len__(self) -> int:
        return len(self._ts)

    def interaction(self, i: int) -> Interaction:
        """Materialise row ``i`` as an Interaction."""
        return Interaction(
            timestamp=self._ts[i],
            src=self._vertex_ids[self._src[i]],
            dst=self._vertex_ids[self._dst[i]],
            src_kind=_KIND_LIST[self._src_kind[i]],
            dst_kind=_KIND_LIST[self._dst_kind[i]],
            tx_id=self._tx[i],
        )

    @overload
    def __getitem__(self, i: int) -> Interaction: ...
    @overload
    def __getitem__(self, i: slice) -> List[Interaction]: ...

    def __getitem__(
        self, i: Union[int, slice]
    ) -> Union[Interaction, List[Interaction]]:
        if isinstance(i, slice):
            return [self.interaction(j) for j in range(*i.indices(len(self._ts)))]
        if i < 0:
            i += len(self._ts)
        if not 0 <= i < len(self._ts):
            raise IndexError(i)
        return self.interaction(i)

    def __iter__(self) -> Iterator[Interaction]:
        for i in range(len(self._ts)):
            yield self.interaction(i)

    def to_interactions(self) -> List[Interaction]:
        """The whole log as a list of Interaction objects."""
        return [self.interaction(i) for i in range(len(self._ts))]

    # ------------------------------------------------------------------
    # time queries

    @property
    def first_timestamp(self) -> float:
        """Timestamp of the first interaction (-inf if empty)."""
        return self._ts[0] if self._ts else float("-inf")

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the most recent interaction (-inf if empty)."""
        return self._ts[-1] if self._ts else float("-inf")

    def timestamps(self) -> Sequence[float]:
        """The timestamp column (read-only view semantics: do not mutate)."""
        return self._ts

    def src_indices(self) -> Sequence[int]:
        """The src column as *dense* vertex indices (read-only view).

        Dense-index consumers (the CSR builders in
        :mod:`repro.metis.graph`, accelerator kernels) iterate these
        columns directly instead of materialising ``Interaction`` rows.
        """
        return self._src

    def dst_indices(self) -> Sequence[int]:
        """The dst column as *dense* vertex indices (read-only view)."""
        return self._dst

    def tx_ids(self) -> Sequence[int]:
        """The transaction-id column (read-only view)."""
        return self._tx

    def src_kind_codes(self) -> Sequence[int]:
        """The src vertex-kind column as byte codes (read-only view)."""
        return self._src_kind

    def dst_kind_codes(self) -> Sequence[int]:
        """The dst vertex-kind column as byte codes (read-only view)."""
        return self._dst_kind

    def identical(self, other: "ColumnarLog") -> bool:
        """Column-wise bit-identity with another log (any backing).

        True iff every row and the vertex-id table match exactly — the
        round-trip guarantee of the binary trace format.  O(N); meant
        for tests and ``repro-trace`` verification, not hot paths.
        """
        if len(self) != len(other) or self.num_vertices != other.num_vertices:
            return False
        mine = (self._ts, self._src, self._dst, self._tx,
                self._src_kind, self._dst_kind, self._vertex_ids)
        theirs = (other._ts, other._src, other._dst, other._tx,
                  other._src_kind, other._dst_kind, other._vertex_ids)
        return all(list(a) == list(b) for a, b in zip(mine, theirs))

    def index_at(self, ts: float) -> int:
        """Index of the first interaction with timestamp >= ts (bisect)."""
        return bisect_left(self._ts, ts)

    def window_bounds(self, start: float, end: float) -> Tuple[int, int]:
        """Index range [lo, hi) of interactions with start <= ts < end."""
        return self.index_at(start), self.index_at(end)

    def window(self, start: float, end: float) -> List[Interaction]:
        """Materialised interactions with start <= ts < end."""
        lo, hi = self.window_bounds(start, end)
        return [self.interaction(i) for i in range(lo, hi)]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ColumnarLog(|log|={len(self._ts)}, |V|={self.num_vertices}, "
            f"span=[{self.first_timestamp}, {self.last_timestamp}])"
        )
