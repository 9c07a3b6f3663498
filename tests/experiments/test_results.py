"""CellResult / ResultSet: serialization round-trips and accessors."""

import dataclasses
import hashlib
import json

import pytest

from repro.errors import StaleResultError
from repro.experiments import (
    CellKey,
    CellResult,
    ExperimentSpec,
    MethodSpec,
    ResultSet,
    ResultStore,
    run_experiment,
)
from repro.experiments.results import ALGORITHM_VERSION, FORMAT


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec(
        scale="tiny", workload_seed=42,
        methods=("hash", "metis", "tr-metis?cut_threshold=0.3"), ks=(2, 4),
    )


@pytest.fixture(scope="module")
def rs(spec, tiny_workload):
    return run_experiment(spec, workload=tiny_workload)


class TestRoundTrip:
    def test_loads_dumps_equality(self, rs):
        assert ResultSet.loads(rs.dumps()) == rs

    def test_round_trip_preserves_floats_exactly(self, rs):
        back = ResultSet.loads(rs.dumps())
        for key in rs.keys():
            assert back.cell(key).series.points == rs.cell(key).series.points

    def test_round_trip_preserves_int_vertex_ids(self, rs):
        back = ResultSet.loads(rs.dumps())
        for cell in back:
            assert all(isinstance(v, int) for v in cell.assignment)
            assert all(isinstance(s, int) for s in cell.assignment.values())

    def test_dumps_is_plain_json(self, rs):
        data = json.loads(rs.dumps())
        assert set(data) == {"spec", "cells"}
        assert len(data["cells"]) == len(rs)

    def test_parameterised_method_survives(self, rs):
        back = ResultSet.loads(rs.dumps())
        cell = back.get("tr-metis?cut_threshold=0.3", 2)
        assert dict(cell.key.method.params)["cut_threshold"] == 0.3


class TestSingleEncoding:
    def test_dumps_joins_the_cell_texts(self, rs):
        assert rs.dumps() == json.dumps(rs.to_dict())

    def test_store_files_are_the_cell_texts(self, spec, rs, tmp_path):
        store = ResultStore(tmp_path)
        for cell in rs:
            path = store.save(spec, cell)
            assert path.read_bytes() == json.dumps(cell.to_dict()).encode()
            assert store.load(spec, cell.key).text == cell.text

    def test_cells_are_frozen(self, rs):
        cell = rs.get("hash", 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.execution = None

    def test_cells_are_stamped(self, rs):
        for cell in json.loads(rs.dumps())["cells"]:
            assert (cell["format"], cell["algorithm"]) == (FORMAT, ALGORITHM_VERSION)


class TestStaleCells:
    @pytest.mark.parametrize("stamp", [
        {"format": 1},
        {"format": FORMAT + 1},
        {"algorithm": ALGORITHM_VERSION + 1},
        {"algorithm": None},
    ])
    def test_other_stamp_raises_naming_both(self, rs, stamp):
        data = {**rs.get("metis", 2).to_dict(), **stamp}
        with pytest.raises(StaleResultError) as err:
            CellResult.from_dict(data)
        found = f"format {data['format']!r}, algorithm {data['algorithm']!r}"
        expected = f"expected format {FORMAT}, algorithm {ALGORITHM_VERSION}"
        assert found in str(err.value) and expected in str(err.value)

    def test_format1_resultset_does_not_load(self, rs, format1_cell):
        text = json.dumps({
            "spec": rs.spec.to_dict(),
            "cells": [format1_cell(cell) for cell in rs],
        })
        with pytest.raises(StaleResultError, match="format 1, algorithm None"):
            ResultSet.loads(text)

    @pytest.mark.parametrize("value", [[], None, "x", 3])
    def test_non_object_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="JSON object"):
            CellResult.from_dict(value)

    @pytest.mark.parametrize("column", ["series", "events", "shards"])
    def test_ragged_columns_are_a_value_error(self, rs, column):
        data = rs.get("metis", 2).to_dict()
        lists = {
            "series": data["series"]["columns"]["ts"],
            "events": data["events"]["moves"],
            "shards": data["shards"],
        }
        lists[column].pop()
        with pytest.raises(ValueError):
            CellResult.from_dict(data)


def test_algorithm_version_pins_cell_content(tiny_workload):
    """A digest of every cell's content, independent of the format.

    Content may change only together with ``ALGORITHM_VERSION``: a
    stored cell computed by other code is then declined instead of
    served.
    """
    spec = ExperimentSpec(
        scale="tiny", workload_seed=42,
        methods=("hash", "fennel", "kl", "metis", "p-metis", "tr-metis",
                 "metis?warm=true"),
        ks=(2, 4), execution="mode=2pc",
    )
    view = [
        {
            "key": cell.key.label,
            "points": [dataclasses.astuple(p) for p in cell.series.points],
            "events": [dataclasses.astuple(e) for e in cell.events],
            "assignment": sorted(cell.assignment.items()),
            "shard_weights": list(cell.shard_weights),
            "execution": (
                cell.execution.to_dict() if cell.execution is not None else None
            ),
        }
        for cell in run_experiment(spec, workload=tiny_workload)
    ]
    digest = hashlib.sha256(
        json.dumps(view, sort_keys=True).encode()).hexdigest()[:16]
    assert (ALGORITHM_VERSION, digest) == (1, "243532e56810d30b"), (
        "cell content changed: re-pinning this digest requires bumping "
        "ALGORITHM_VERSION in repro/experiments/results.py in the same "
        "commit, so that stores recompute the cells computed before"
    )


class TestAccessors:
    def test_get_by_string_or_spec(self, rs):
        by_str = rs.get("metis", 4)
        by_spec = rs.get(MethodSpec.parse("metis"), 4)
        assert by_str is by_spec

    def test_get_missing_raises_with_inventory(self, rs):
        with pytest.raises(KeyError, match="no result for"):
            rs.get("metis", 64)

    def test_iteration_follows_grid_order(self, rs, spec):
        assert [c.key for c in rs] == list(spec.cells())

    def test_mean_over_active_windows(self, rs):
        cell = rs.get("hash", 2)
        pts = [p for p in cell.series.points if p.interactions > 0]
        expect = sum(p.dynamic_edge_cut for p in pts) / len(pts)
        assert cell.mean("dynamic_edge_cut") == expect

    def test_to_assignment_rebuilds_counts_and_weights(self, rs):
        cell = rs.get("metis", 2)
        a = cell.to_assignment()
        assert a.as_dict() == cell.assignment
        assert a.weights == cell.shard_weights
        a.validate()

    def test_to_replay_result_bridge(self, rs):
        cell = rs.get("metis", 2)
        replay = cell.to_replay_result()
        assert replay.series is cell.series
        assert replay.total_moves == cell.total_moves
        assert replay.graph is None

    def test_live_replays_not_part_of_equality(self, rs):
        back = ResultSet.loads(rs.dumps())
        assert back == rs

    def test_merged_with(self, spec, rs, tiny_workload):
        key = CellKey(MethodSpec.parse("hash"), 2, 1)
        partial = run_experiment(spec, workload=tiny_workload, only=[key])
        merged = partial.merged_with(rs)
        assert len(merged) == len(rs)
        assert merged == rs
