"""Extension method — FENNEL-style streaming partitioning.

The paper's five methods either ignore edges (HASH) or periodically
*re*-partition (KL, METIS family), paying moves.  A natural sixth point
in the design space — and the one a blockchain could deploy most easily,
since accounts are placed exactly once, at creation — is single-pass
streaming partitioning à la FENNEL (Tsourakakis et al., WSDM 2014):

    place v on the shard maximising  |N(v) ∩ shard|  −  γ · load(shard)ᵠ

i.e. neighbor affinity minus a convex load penalty.  Like HASH it never
moves a vertex (zero moves, no repartitioning); unlike HASH it looks at
the edges available at placement time.

We stream over *transaction endpoints* (what is known when the vertex
first appears) plus the vertex's accumulated neighborhood if it was
placed earlier in the same window — faithful to the streaming model.
One scorer serves both entry points: the replay engine's batch
placement hands it dense indices of the assignment's numbering, and
:meth:`FennelPartitioner.place_vertex` translates raw ids into them.

This method is an extension beyond the paper (flagged in DESIGN.md and
EXPERIMENTS.md); benchmarks compare it against the paper's five.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.assignment import ShardAssignment
from repro.core.base import PartitionMethod, ReplayContext


class FennelPartitioner(PartitionMethod):
    name = "fennel"

    def __init__(
        self,
        k: int,
        seed: int = 0,
        gamma: float = 1.5,
        power: float = 2.0,
    ):
        """Args:
            gamma: weight of the load penalty relative to affinity
                (units: "equivalent neighbors at 1x average load").
            power: exponent of the convex load penalty.

        The penalty is ``gamma * (load/avg_load)^power`` — a scale-free
        variant of FENNEL's alpha*gamma*n^(gamma-1): the original fixes
        its scale from the final |V| and |E|, which a streaming
        blockchain cannot know in advance, so we normalise by the
        running average load instead.
        """
        super().__init__(k, seed)
        self.gamma = gamma
        self.power = power

    def place_vertex(
        self,
        vertex: int,
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> int:
        # raw ids, translated into the dense scorer; an endpoint the
        # assignment has never numbered is unassigned and drops out
        index = assignment.index
        return self._best_shard(
            index.get(vertex, -1),
            [index[other] for other in tx_endpoints if other in index],
            assignment,
        )

    def place_new_vertices(
        self,
        vertices: Sequence[int],
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> None:
        # sequential: each score sees the counts the previous placement
        # left
        shards = assignment.shards
        for v in vertices:
            if shards[v] < 0:
                assignment.place(v, self._best_shard(v, tx_endpoints, assignment))

    def _best_shard(
        self,
        vertex: int,
        tx_endpoints: Sequence[int],
        assignment: ShardAssignment,
    ) -> int:
        """The FENNEL score's best shard for a dense vertex.

        Affinity counts the *distinct* co-endpoints of the introducing
        transaction that already live somewhere.  ``tx_endpoints``
        lists src/dst per interaction in the bucket, so a counterparty
        repeated across the transaction's calls would otherwise be
        counted once per call — FENNEL's |N(v) ∩ shard| is over the
        neighbor set, not the call multiset.
        """
        k = self.k
        affinity = [0.0] * k
        shards = assignment.shards
        neighbors = dict.fromkeys(tx_endpoints)
        neighbors.pop(vertex, None)
        for other in neighbors:
            shard = shards[other]
            if shard >= 0:
                affinity[shard] += 1.0

        counts = assignment.counts
        avg = max(sum(counts) / k, 1.0)
        gamma = self.gamma
        power = self.power
        best_shard = 0
        best_score = float("-inf")
        for s, count in enumerate(counts):
            score = affinity[s] - gamma * (count / avg) ** power
            if score > best_score:
                best_score = score
                best_shard = s
        return best_shard

    def maybe_repartition(self, ctx: ReplayContext) -> Optional[Mapping[int, int]]:
        return None  # streaming: placement is final, like HASH
