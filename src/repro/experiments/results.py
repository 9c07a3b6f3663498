"""Serializable experiment results.

A :class:`CellResult` is the durable projection of one replay: the
metric series, the repartition events, the final vertex → shard map and
the per-shard activity weights — everything the figures, the sharded
simulator and the paper's tables consume, without the cumulative graph
(which is large and rebuilt from the log on demand).

A :class:`ResultSet` maps a grid of
:class:`~repro.experiments.spec.CellKey` cells to their results, knows
the :class:`~repro.experiments.spec.ExperimentSpec` that produced it,
and round-trips through JSON: ``ResultSet.loads(rs.dumps()) == rs``.

Each cell has one canonical JSON text, :attr:`CellResult.text`, encoded
once from columns (format 2)::

    {"format": 2, "algorithm": ALGORITHM_VERSION, "key": {...},
     "series": {"method": ..., "k": ..., "columns": {<MetricPoint field>: [...]}},
     "events": {<RepartitionEvent field>: [...]},
     "vertices": [<sorted vertex ids>], "shards": [<shard of each>],
     "shard_weights": [...], "execution": {...}}

The result store writes that text as the cell's file, and
:meth:`ResultSet.dumps` joins the texts, so a resumed sweep emits its
files' bytes without encoding them again.  ``execution`` is present
only for execution-enabled specs (:class:`ExperimentSpec` with an
:class:`~repro.experiments.spec.ExecutionSpec`): the
:class:`~repro.sharding.throughput.ThroughputReport` of replaying the
cell's final assignment through the sharded executor (full schema in
``docs/execution.md``).

A cell whose ``format`` or ``algorithm`` stamp differs from
:data:`FORMAT` / :data:`ALGORITHM_VERSION` was written by other code:
:meth:`CellResult.from_dict` raises
:class:`~repro.errors.StaleResultError` instead of serving it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.assignment import ShardAssignment
from repro.core.base import RepartitionEvent
from repro.core.registry import result_name
from repro.core.replay import ReplayResult
from repro.errors import StaleResultError
from repro.experiments.spec import CellKey, ExperimentSpec, MethodSpec
from repro.metrics.series import MetricPoint, MetricSeries
from repro.sharding.throughput import ThroughputReport

#: Layout of a serialized cell; readers accept this format only.
FORMAT = 2
#: Version of the code that computes cell content.  Bump it in the same
#: commit as any change that alters a cell (and so re-pins a digest in
#: ``tests/experiments/test_results.py`` or
#: ``tests/metis/test_refine_goldens.py``): stores then recompute every
#: cell computed before the change instead of serving it.
ALGORITHM_VERSION = 1

_POINT_FIELDS = tuple(f.name for f in dataclasses.fields(MetricPoint))
_EVENT_FIELDS = tuple(f.name for f in dataclasses.fields(RepartitionEvent))


def _columns(rows: Sequence, names: Tuple[str, ...]) -> Dict[str, List]:
    """``rows`` as one list per field."""
    return {name: list(map(attrgetter(name), rows)) for name in names}


def _rows(cls, columns: Dict[str, List], names: Tuple[str, ...]) -> List:
    """Inverse of :func:`_columns`; ragged columns raise ``ValueError``."""
    fields = [columns[name] for name in names]
    if len({len(field) for field in fields}) > 1:
        raise ValueError(f"{cls.__name__} columns differ in length")
    return list(map(cls, *fields))


@dataclasses.dataclass(frozen=True)
class CellResult:
    """One (method, k, seed) replay, in serializable form.

    ``execution`` is present only when the spec carried an
    :class:`~repro.experiments.spec.ExecutionSpec`: the throughput
    report of replaying the log through the sharded executor under
    this cell's final assignment.  Cells are frozen so that their
    cached :attr:`text` cannot go stale.
    """

    key: CellKey
    series: MetricSeries
    events: List[RepartitionEvent]
    assignment: Dict[int, int]
    shard_weights: Tuple[int, ...]
    execution: Optional[ThroughputReport] = None

    # -- ReplayResult-compatible read surface --------------------------

    @property
    def method(self) -> str:
        return self.key.method.label

    @property
    def k(self) -> int:
        return self.key.k

    @property
    def seed(self) -> int:
        return self.key.seed

    @property
    def total_moves(self) -> int:
        return sum(e.moves for e in self.events)

    @property
    def num_repartitions(self) -> int:
        return sum(1 for e in self.events if e.moves or e.reassigned)

    def mean(self, column: str) -> float:
        """Mean of a metric column over active (non-empty) windows."""
        pts = [p for p in self.series.points if p.interactions > 0]
        if not pts:
            return 0.0
        return sum(getattr(p, column) for p in pts) / len(pts)

    def to_assignment(self) -> ShardAssignment:
        """Rebuild a live :class:`ShardAssignment` (counts re-derived)."""
        a = ShardAssignment(self.key.k)
        for v, s in self.assignment.items():
            a.assign(v, s)
        a._weights = list(self.shard_weights)
        return a

    # -- construction / serialization ----------------------------------

    @classmethod
    def from_replay(cls, key: CellKey, replay: ReplayResult) -> "CellResult":
        return cls(
            key=key,
            series=replay.series,
            events=list(replay.events),
            assignment=replay.assignment.as_dict(),
            shard_weights=tuple(replay.assignment.weights),
        )

    def to_replay_result(self) -> ReplayResult:
        """Back-compat bridge to the legacy result type (a cell has no
        log, so the result's ``graph`` is ``None``)."""
        return ReplayResult(
            method=self.key.method.name,
            k=self.key.k,
            series=self.series,
            assignment=self.to_assignment(),
            events=list(self.events),
        )

    @functools.cached_property
    def text(self) -> str:
        """The canonical JSON text, ``json.dumps(self.to_dict())``,
        encoded at most once per cell."""
        return json.dumps(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        vertices = sorted(self.assignment)
        data: Dict[str, Any] = {
            "format": FORMAT,
            "algorithm": ALGORITHM_VERSION,
            "key": self.key.to_dict(),
            "series": {
                "method": self.series.method,
                "k": self.series.k,
                "columns": _columns(self.series.points, _POINT_FIELDS),
            },
            "events": _columns(self.events, _EVENT_FIELDS),
            # JSON object keys are strings; parallel lists keep ints
            "vertices": vertices,
            "shards": [self.assignment[v] for v in vertices],
            "shard_weights": list(self.shard_weights),
        }
        if self.execution is not None:
            data["execution"] = self.execution.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        """Inverse of :meth:`to_dict`.

        Raises :class:`~repro.errors.StaleResultError` for a cell with
        another format or algorithm stamp (an unstamped cell is format
        1), ``ValueError`` for one that contradicts its own key (a
        vertex listed twice, a shard outside ``[0, k)``, other than k
        shard weights, a series or an execution report for another k,
        other than k utilization entries, a series named for another
        method than the key's, as the registry names it), and
        ``ValueError``, ``KeyError`` or ``TypeError`` for one that is
        not a cell at all.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a cell is a JSON object, not {type(data).__name__}")
        key = CellKey.from_dict(data["key"])
        found = (data.get("format", 1), data.get("algorithm"))
        if found != (FORMAT, ALGORITHM_VERSION):
            raise StaleResultError(
                f"cell {key.label} has format {found[0]!r}, algorithm "
                f"{found[1]!r}; expected format {FORMAT}, algorithm "
                f"{ALGORITHM_VERSION}"
            )
        series = data["series"]
        execution = data.get("execution")
        k = key.k
        vertices = data["vertices"]
        shards = data["shards"]
        assignment = dict(zip(vertices, shards, strict=True))
        shard_weights = tuple(data["shard_weights"])
        if len(assignment) != len(vertices):
            raise ValueError(f"cell {key.label} lists a vertex twice")
        if shards and not (min(shards) >= 0 and max(shards) < k):
            raise ValueError(f"cell {key.label} has a shard outside [0, {k})")
        if len(shard_weights) != k:
            raise ValueError(
                f"cell {key.label} has {len(shard_weights)} shard weights for k={k}")
        if series["k"] != k:
            raise ValueError(f"cell {key.label} has a series for k={series['k']!r}")
        method = result_name(key.method.name)
        if method is not None and series["method"] != method:
            raise ValueError(
                f"cell {key.label} has a series for method {series['method']!r}")
        report = None
        if execution is not None:
            report = ThroughputReport.from_dict(execution)
            if report.k != k:
                raise ValueError(
                    f"cell {key.label} has an execution report for k={report.k}")
            if len(report.utilization) != k:
                raise ValueError(
                    f"cell {key.label} has {len(report.utilization)} "
                    f"utilization entries for k={k}")
        return cls(
            key=key,
            series=MetricSeries(
                method=series["method"],
                k=k,
                points=_rows(MetricPoint, series["columns"], _POINT_FIELDS),
            ),
            events=_rows(RepartitionEvent, data["events"], _EVENT_FIELDS),
            assignment=assignment,
            shard_weights=shard_weights,
            execution=report,
        )

    @classmethod
    def from_json(cls, text: str) -> "CellResult":
        """Parse a cell's canonical text (as :attr:`text` wrote it); the
        cell keeps ``text`` instead of encoding itself again."""
        cell = cls.from_dict(json.loads(text))
        cell.__dict__["text"] = text
        return cell


MethodArg = Union[str, MethodSpec]


class ResultSet:
    """Results of an experiment, keyed by (method spec, k, seed).

    Iteration yields :class:`CellResult` objects in the spec's grid
    order.  Equality compares the spec and every cell.
    """

    def __init__(self, spec: ExperimentSpec, cells: Dict[CellKey, CellResult]):
        self.spec = spec
        order = [k for k in spec.cells() if k in cells]
        # preserve any extra cells (merged sets) after the spec's grid
        order += [k for k in cells if k not in set(order)]
        self._cells: Dict[CellKey, CellResult] = {k: cells[k] for k in order}

    # -- mapping surface -----------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self._cells.values())

    def __contains__(self, key: CellKey) -> bool:
        return key in self._cells

    def keys(self) -> Tuple[CellKey, ...]:
        return tuple(self._cells)

    def items(self):
        return self._cells.items()

    def _key(self, method: MethodArg, k: int, seed: int) -> CellKey:
        return CellKey(method=MethodSpec.parse(method), k=k, seed=seed)

    def get(self, method: MethodArg, k: int, seed: int = 1) -> CellResult:
        """Cell lookup; ``method`` may be a spec or a method string."""
        key = self._key(method, k, seed)
        try:
            return self._cells[key]
        except KeyError:
            raise KeyError(
                f"no result for {key.label}; have: "
                f"{', '.join(c.label for c in self._cells) or '(empty)'}"
            ) from None

    def cell(self, key: CellKey) -> CellResult:
        return self._cells[key]

    # -- equality / serialization --------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.spec == other.spec and self._cells == other._cells

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ResultSet({self.spec.workload_id()}, "
            f"{len(self._cells)}/{len(self.spec.cells())} cells)"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "cells": [c.to_dict() for c in self._cells.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResultSet":
        cells = [CellResult.from_dict(c) for c in data["cells"]]
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            cells={c.key: c for c in cells},
        )

    def dumps(self) -> str:
        """``json.dumps(self.to_dict())``, byte for byte, joined from
        each cell's :attr:`CellResult.text`."""
        spec = json.dumps(self.spec.to_dict())
        cells = ", ".join(cell.text for cell in self._cells.values())
        return f'{{"spec": {spec}, "cells": [{cells}]}}'

    @classmethod
    def loads(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))

    def merged_with(self, other: "ResultSet") -> "ResultSet":
        """New set with ``other``'s cells added (other wins on clash)."""
        merged = dict(self._cells)
        merged.update(other._cells)
        return ResultSet(self.spec, merged)
