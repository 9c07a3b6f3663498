"""On-disk result store: interrupted sweeps resume instead of recomputing.

Layout: one JSON file per grid cell, grouped per store identity — the
workload id plus, for execution-enabled specs, the execution axis::

    <root>/<scale>-w<seed>-win<hours>h/<method-label>--k<k>--s<seed>--<hash>.json
    <root>/<scale>-w<seed>-win<hours>h-exec-<mode>-<hash>/<...>.json

The filename embeds a short hash of the cell's canonical label, so
parameterised method variants that sanitize to the same prefix can
never collide.  A file holds the cell's canonical text
(:attr:`~repro.experiments.results.CellResult.text`, stamped with the
cell format and ``ALGORITHM_VERSION``), and a loaded cell keeps that
text, so ``ResultSet.dumps()`` of a resumed sweep reuses the file's
bytes.  Files are written atomically (tmp + rename): a sweep killed
mid-write never leaves a half cell behind.

A cell file is served only if it loads cleanly, carries the current
stamps and holds the key its filename encodes.  Otherwise the store
declines it — counting the reason in :attr:`ResultStore.declined` — and
the sweep recomputes the cell and overwrites the file.
"""

from __future__ import annotations

import collections
import hashlib
import os
import pathlib
import re
from typing import Dict, Iterable, Optional, Union

from repro.errors import StaleResultError
from repro.experiments.results import CellResult
from repro.experiments.spec import CellKey, ExperimentSpec

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


class ResultStore:
    """Directory-backed store of :class:`CellResult` files."""

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)
        #: cells :meth:`load` found on disk but would not serve, by
        #: reason: ``stale`` (another format or algorithm stamp),
        #: ``corrupt`` (unreadable, not JSON, not an object, or a field
        #: missing) or ``foreign`` (the key of another cell)
        self.declined: collections.Counter = collections.Counter()

    # -- paths ---------------------------------------------------------

    def cell_path(self, spec: ExperimentSpec, key: CellKey) -> pathlib.Path:
        label = key.method.label
        digest = hashlib.sha1(label.encode("utf-8")).hexdigest()[:8]
        stem = _SAFE.sub("_", label).strip("_") or "method"
        name = f"{stem}--k{key.k}--s{key.seed}--{digest}.json"
        return self.root / spec.store_id() / name

    # -- IO ------------------------------------------------------------

    def load(self, spec: ExperimentSpec, key: CellKey) -> Optional[CellResult]:
        """The stored cell, or None if absent or declined (recompute then)."""
        path = self.cell_path(spec, key)
        try:
            cell = CellResult.from_json(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except StaleResultError:
            reason = "stale"
        except (OSError, ValueError, KeyError, TypeError):
            reason = "corrupt"
        else:
            # the filename encodes the key, but verify: a hand-copied
            # file from another grid must not masquerade as this cell
            if cell.key == key:
                return cell
            reason = "foreign"
        self.declined[reason] += 1
        return None

    def load_known(
        self, spec: ExperimentSpec, keys: Iterable[CellKey]
    ) -> Dict[CellKey, CellResult]:
        out: Dict[CellKey, CellResult] = {}
        for key in keys:
            cell = self.load(spec, key)
            if cell is not None:
                out[key] = cell
        return out

    def save(self, spec: ExperimentSpec, cell: CellResult) -> pathlib.Path:
        path = self.cell_path(spec, cell.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(cell.text, encoding="utf-8")
        os.replace(tmp, path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultStore({str(self.root)!r})"
