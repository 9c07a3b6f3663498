"""New-vertex placement: the paper's min-edge-cut / max-balance rule.

When an account or contract appears for the first time it must be
assigned to some shard before its transaction can be accounted.  The
paper (§II-C): "This is done by inspecting all the accounts involved in
the transaction and picking the shard that minimizes edge-cuts; if more
than one exists, we maximize the balance."

The rule scores dense indices of the assignment's numbering
(:func:`min_cut_shard`, what the replay engine's batch placement
calls); :func:`place_by_min_cut` is the same rule over raw vertex ids.

Alternative rules (hash, random, lightest) are provided for the
ABL-PLACE ablation.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.core.assignment import ShardAssignment
from repro.ethereum.types import address_hash


def min_cut_shard(
    vertex: int,
    tx_endpoints: Sequence[int],
    assignment: ShardAssignment,
    scratch: Optional[Dict[int, int]] = None,
) -> int:
    """Pick the shard minimising new edge-cut, tie-break on balance.

    ``vertex`` and ``tx_endpoints`` are dense indices of
    ``assignment``'s numbering.  The shard hosting the most
    already-assigned endpoints of the transaction minimises the number
    of freshly-cut edges.  Among equally good shards the emptiest (by
    vertex count) wins; a vertex with no assigned co-endpoints goes to
    the emptiest shard outright.

    ``scratch``, when given, is an *empty* dict the affinity counts are
    built in and which is cleared again before returning — the batch
    placement path reuses one map across all placements of a replay
    instead of allocating per vertex.  Shard iteration order (and so
    tie-breaking) is identical either way: insertion-ordered by first
    assigned co-endpoint.
    """
    affinity: Dict[int, int] = {} if scratch is None else scratch
    shards = assignment.shards
    for other in tx_endpoints:
        if other == vertex:
            continue
        shard = shards[other]
        if shard >= 0:
            affinity[shard] = affinity.get(shard, 0) + 1

    if not affinity:
        return assignment.lightest_shard()

    best_affinity = max(affinity.values())
    candidates = [s for s, c in affinity.items() if c == best_affinity]
    if scratch is not None:
        scratch.clear()
    if len(candidates) == 1:
        return candidates[0]
    counts = assignment.counts
    return min(candidates, key=lambda s: (counts[s], s))


def place_by_min_cut(
    vertex: int,
    tx_endpoints: Sequence[int],
    assignment: ShardAssignment,
    scratch: Optional[Dict[int, int]] = None,
) -> int:
    """:func:`min_cut_shard` over raw vertex ids.

    The ids are translated through ``assignment.index``; an endpoint
    the assignment has never numbered is unassigned and drops out.
    """
    index = assignment.index
    return min_cut_shard(
        index.get(vertex, -1),
        [index[other] for other in tx_endpoints if other in index],
        assignment,
        scratch,
    )


def place_by_hash(vertex: int, k: int) -> int:
    """The HASH rule: shard = hash(vertex id) mod k."""
    return address_hash(vertex) % k


def place_randomly(k: int, rng: random.Random) -> int:
    """Uniform random placement (ablation baseline)."""
    return rng.randrange(k)


def place_lightest(assignment: ShardAssignment) -> int:
    """Always the emptiest shard (pure balance, ignores edges)."""
    return assignment.lightest_shard()
