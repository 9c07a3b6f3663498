"""The bisection and halves memos a CSRGraph carries.

A greedy bisection is a function of the graph's arrays, its other
inputs and the RNG state it starts from, so a repeat from an equal
state is served from the graph's memo: the same part, the same RNG
state after, and no second coarsening.  Any other input computes
again.  ``coarsened`` (tests/conftest.py) lists one graph per computed
bisection.
"""

import random

import pytest

from repro import kernels
from repro.graph import generators as gen
from repro.graph.undirected import collapse_to_undirected
from repro.metis.bisect import multilevel_bisect
from repro.metis.graph import CSRGraph
from repro.metis.kway import recursive_bisection

INPUTS = dict(targets=(150.0, 150.0), ubfactor=1.05, coarsen_to=64,
              initial="greedy", ntrials=4)


def powerlaw_csr():
    return CSRGraph.from_undirected(collapse_to_undirected(
        gen.powerlaw_graph(300, 2, random.Random(5))))


class TestBisectionMemo:
    def test_repeat_from_an_equal_state_is_served(self, coarsened):
        graph = powerlaw_csr()
        first_rng, second_rng = random.Random(11), random.Random(11)
        first = multilevel_bisect(graph, rng=first_rng, **INPUTS)
        second = multilevel_bisect(graph, rng=second_rng, **INPUTS)
        assert second == first
        assert second_rng.getstate() == first_rng.getstate()
        assert coarsened == [graph]

    def test_served_part_equals_a_fresh_computation(self, coarsened):
        graph = powerlaw_csr()
        multilevel_bisect(graph, rng=random.Random(11), **INPUTS)
        served_rng, fresh_rng = random.Random(11), random.Random(11)
        served = multilevel_bisect(graph, rng=served_rng, **INPUTS)
        fresh = multilevel_bisect(powerlaw_csr(), rng=fresh_rng, **INPUTS)
        assert served == fresh
        assert served_rng.getstate() == fresh_rng.getstate()
        assert len(coarsened) == 2

    def test_served_part_is_a_copy(self):
        graph = powerlaw_csr()
        first = multilevel_bisect(graph, rng=random.Random(11), **INPUTS)
        expected = list(first)
        first[:] = [1 - p for p in first]
        assert multilevel_bisect(graph, rng=random.Random(11), **INPUTS) == expected

    @pytest.mark.parametrize("change", [
        {"targets": (100.0, 200.0)}, {"ubfactor": 1.1}, {"coarsen_to": 32},
        {"initial": "spectral"}, {"ntrials": 2}, {"seed": 12},
    ])
    def test_any_other_input_computes_again(self, change, coarsened):
        graph = powerlaw_csr()
        multilevel_bisect(graph, rng=random.Random(11), **INPUTS)
        inputs = {**INPUTS, **change}
        rng = random.Random(inputs.pop("seed", 11))
        multilevel_bisect(graph, rng=rng, **inputs)
        assert coarsened == [graph, graph]

    def test_each_backend_computes_its_own(self, coarsened):
        graph = powerlaw_csr()
        backends = kernels.available_backends()
        for name in backends:
            with kernels.using_backend(name):
                multilevel_bisect(graph, rng=random.Random(11), **INPUTS)
        assert len(coarsened) == len(backends)

    def test_memo_is_not_part_of_the_graph_value(self):
        graph = powerlaw_csr()
        multilevel_bisect(graph, rng=random.Random(11), **INPUTS)
        assert graph == powerlaw_csr()
        assert repr(graph) == repr(powerlaw_csr())


class TestSharedHalves:
    def test_eight_way_reuses_the_four_ways_left_half(self, coarsened):
        graph = powerlaw_csr()
        total = float(graph.total_vertex_weight)
        four = recursive_bisection(graph, 4, [total / 4] * 4, random.Random(3))
        top, left, right = coarsened
        assert top is graph
        eight = recursive_bisection(graph, 8, [total / 8] * 8, random.Random(3))
        # the top bisection and the left half's are served; the right
        # half is the same object, bisected from another RNG state
        later = coarsened[3:]
        assert len(later) == 7 - 2
        assert top not in later and left not in later
        assert any(g is right for g in later)
        assert [p < 4 for p in eight] == [p < 2 for p in four]
        assert [p // 2 for p in eight if p < 4] == [p for p in four if p < 2]
        assert recursive_bisection(
            powerlaw_csr(), 8, [total / 8] * 8, random.Random(3)) == eight
