"""Fixtures shared by the experiment-API tests."""

import dataclasses

import pytest


@pytest.fixture
def format1_cell():
    """Encoder of a cell in the format-1 layout (before cells were
    stamped): points and events as one dict each, the assignment as
    ``[vertex, shard]`` pairs, no ``format`` or ``algorithm`` key."""

    def encode(cell):
        return {
            "key": cell.key.to_dict(),
            "series": {
                "method": cell.series.method,
                "k": cell.series.k,
                "points": [dataclasses.asdict(p) for p in cell.series.points],
            },
            "events": [dataclasses.asdict(e) for e in cell.events],
            "assignment": [[v, s] for v, s in sorted(cell.assignment.items())],
            "shard_weights": list(cell.shard_weights),
        }

    return encode
