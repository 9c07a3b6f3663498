"""Property-based tests for graph substrate invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import Interaction, build_graph, build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import WeightedDiGraph
from repro.graph.undirected import collapse_to_undirected

# strategy: a time-ordered interaction stream over a small vertex space
interaction_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),  # src
        st.integers(min_value=0, max_value=12),  # dst
    ),
    min_size=0,
    max_size=60,
).map(
    lambda pairs: [
        Interaction(timestamp=float(i), src=s, dst=d, tx_id=i)
        for i, (s, d) in enumerate(pairs)
    ]
)


@given(interaction_streams)
def test_total_edge_weight_equals_interaction_count(stream):
    g = build_graph(stream)
    assert g.total_edge_weight == len(stream)


@given(interaction_streams)
def test_vertex_weight_equals_participation(stream):
    g = build_graph(stream)
    expected = {}
    for it in stream:
        expected[it.src] = expected.get(it.src, 0) + 1
        if it.dst != it.src:
            expected[it.dst] = expected.get(it.dst, 0) + 1
    for v, w in expected.items():
        assert g.vertex_weight(v) == w


@given(interaction_streams)
def test_edge_weight_equals_pair_frequency(stream):
    g = build_graph(stream)
    freq = {}
    for it in stream:
        freq[(it.src, it.dst)] = freq.get((it.src, it.dst), 0) + 1
    for (s, d), n in freq.items():
        assert g.edge_weight(s, d) == n


@given(interaction_streams)
def test_collapse_preserves_total_weight_minus_self_loops(stream):
    g = build_graph(stream)
    und = collapse_to_undirected(g)
    self_loop_weight = sum(1 for it in stream if it.src == it.dst)
    assert und.total_edge_weight == len(stream) - self_loop_weight


@given(interaction_streams)
def test_collapse_is_symmetric(stream):
    und = collapse_to_undirected(build_graph(stream))
    for u in und.vertices():
        for v, w in und.adjacency(u).items():
            assert und.adjacency(v)[u] == w
            assert u != v


@given(interaction_streams)
def test_predecessors_mirror_successors(stream):
    g = build_graph(stream)
    for v in g.vertices():
        for succ, w in g.successors(v).items():
            assert g.predecessors(succ)[v] == w


@given(interaction_streams)
def test_window_split_partitions_the_log(stream):
    """Window graphs over a partition of time cover the whole stream."""
    log = ColumnarLog(stream)
    mid = len(stream) / 2.0
    first = build_graph_columnar(log, *log.window_bounds(float("-inf"), mid))
    second = build_graph_columnar(log, *log.window_bounds(mid, float("inf")))
    assert first.total_edge_weight + second.total_edge_weight == len(stream)


@given(interaction_streams, st.integers(min_value=1, max_value=5))
def test_subgraph_weights_never_exceed_parent(stream, modulus):
    g = build_graph(stream)
    keep = [v for v in g.vertices() if v % modulus == 0]
    sub = g.subgraph(keep)
    for src, dst, w in sub.edges():
        assert g.edge_weight(src, dst) == w
