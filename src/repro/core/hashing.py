"""Method 1 — HASH (paper §II-C, first bullet).

Shard = hash(vertex id) mod k.  Placement depends on the id only, so a
vertex never moves and the method never repartitions: "There are no
moves since partitioning depends on vertex id only and once assigned to
a shard a vertex remains in the assigned shard."

Static balance is near-optimal (uniform hashing), but the method is
oblivious to edges, so the edge-cut approaches ``1 - 1/k`` — with k = 8
the paper measures ~88% multi-shard transactions.

The replay engine places by dense index
(:meth:`~HashPartitioner.place_new_vertices`), hashing the raw id the
assignment's numbering maps each index to.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.assignment import ShardAssignment
from repro.core.base import PartitionMethod, ReplayContext
from repro.ethereum.types import address_hash


class HashPartitioner(PartitionMethod):
    name = "hash"

    def __init__(self, k: int, seed: int = 0, salt: int = 0):
        super().__init__(k, seed)
        self.salt = salt

    def place_vertex(
        self,
        vertex: int,
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> int:
        return address_hash(vertex, self.salt) % self.k

    def place_new_vertices(
        self,
        vertices: Sequence[int],
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> None:
        # dense indices: hash each vertex's raw id
        ids = assignment.ids
        shards = assignment.shards
        for v in vertices:
            if shards[v] < 0:
                assignment.place(v, address_hash(ids[v], self.salt) % self.k)

    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        return None
