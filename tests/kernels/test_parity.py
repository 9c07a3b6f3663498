"""Property tests: the numpy backend is bit-identical to ``pure``.

The pure-python backend is the oracle — a straight transliteration of
the per-row loops the kernels replaced.  The numpy backend's own forms
(its ``ACCELERATED`` kernels; every other name is the pure object
itself, see ``test_backend.py``) must reproduce its outputs *exactly*,
including every order the contract guarantees (the stream state's
edge first-occurrence order fixes the CSR adjacency order cold METIS
results depend on).  The CSR bridges are held to the boxed digraph
pipeline they replaced.  Logs are arbitrary: self-loops, repeated
edges, contract upgrades, empty windows and single-vertex (pure
self-loop) streams all appear in the strategy.  Where numpy does not
import, ``BACKENDS`` is empty and the parametrised cases skip.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graph.builder import Interaction, build_graph, build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import VertexKind
from repro.graph.undirected import collapse_to_undirected
from repro.kernels import StreamState
from repro.metis.graph import CSRGraph, period_csr

BACKENDS = [b for b in kernels.available_backends() if b != "pure"]


def _pure():
    with kernels.using_backend("pure"):
        return kernels.active()


@st.composite
def columnar_logs(draw):
    """A ColumnarLog with self-loops, kind upgrades and tx buckets."""
    n = draw(st.integers(min_value=0, max_value=120))
    nv = draw(st.integers(min_value=1, max_value=12))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, nv - 1),
                st.integers(0, nv - 1),
                st.sampled_from([VertexKind.ACCOUNT, VertexKind.CONTRACT]),
                st.sampled_from([VertexKind.ACCOUNT, VertexKind.CONTRACT]),
            ),
            min_size=n, max_size=n,
        )
    )
    per_tx = draw(st.integers(min_value=1, max_value=4))
    gap = draw(st.floats(min_value=0.0, max_value=3.0))
    return ColumnarLog(
        Interaction(
            timestamp=(i // per_tx) * gap,
            src=100 + s, dst=100 + d,
            src_kind=sk, dst_kind=dk,
            tx_id=i // per_tx,
        )
        for i, (s, d, sk, dk) in enumerate(rows)
    )


def _splits(log, cuts):
    """Window boundaries [0, ..., len(log)] from fractional cut points."""
    n = len(log)
    bounds = sorted({0, n, *(int(c * n) for c in cuts)})
    return list(zip(bounds, bounds[1:]))


def _batch_tuple(batch):
    return batch.new_edges, batch.placement_groups


def _state_tuple(state):
    """Every field of a StreamState, orders included."""
    return (
        state.max_vertex,
        list(state.activity),
        list(state.edge_index.items()),
        list(state.esrc),
        list(state.edst),
        list(state.ecount),
    )


def _stream_cols(log):
    return log.src_indices(), log.dst_indices(), log.tx_ids()


@pytest.mark.parametrize("backend", BACKENDS)
@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=4))
@settings(max_examples=60, deadline=None)
def test_window_pass_parity(backend, log, cuts):
    cols = _stream_cols(log)
    ref_state, got_state = StreamState(), StreamState()
    for lo, hi in _splits(log, cuts):
        ref = _pure().window_pass(*cols, lo, hi, ref_state)
        with kernels.using_backend(backend):
            got = kernels.active().window_pass(*cols, lo, hi, got_state)
        assert _batch_tuple(got) == _batch_tuple(ref)
        assert _state_tuple(got_state) == _state_tuple(ref_state)


@pytest.mark.parametrize("backend", BACKENDS)
@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=3),
       k=st.integers(2, 5), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_account_window_and_static_cut_parity(backend, log, cuts, k, seed):
    src, dst = log.src_indices(), log.dst_indices()
    cols = _stream_cols(log)
    rng = random.Random(seed)
    shard = [rng.randrange(k) for _ in range(log.num_vertices)]
    state = StreamState()
    for lo, hi in _splits(log, cuts):
        batch = _pure().window_pass(*cols, lo, hi, state)
        ref = _pure().account_window(src, dst, lo, hi, batch.new_edges, shard, k)
        ref_cut = _pure().static_cut_count(state.esrc, state.edst, shard)
        with kernels.using_backend(backend):
            kr = kernels.active()
            got = kr.account_window(src, dst, lo, hi, batch.new_edges, shard, k)
            got_cut = kr.static_cut_count(state.esrc, state.edst, shard)
        assert got == ref
        assert got_cut == ref_cut


@pytest.mark.parametrize("backend", BACKENDS)
@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=4))
@settings(max_examples=60, deadline=None)
def test_max_index_parity(backend, log, cuts):
    src, dst = log.src_indices(), log.dst_indices()
    for lo, hi in _splits(log, cuts):
        ref = _pure().max_index(src, dst, lo, hi)
        with kernels.using_backend(backend):
            got = kernels.active().max_index(src, dst, lo, hi)
        assert got == ref


@pytest.mark.parametrize("backend", BACKENDS)
@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=3),
       weights=st.sampled_from(["unit", "activity"]))
@settings(max_examples=60, deadline=None)
def test_csr_accumulator_and_window_parity(backend, log, cuts, weights):
    src, dst = log.src_indices(), log.dst_indices()
    ref_acc = _pure().CSRAccumulator()
    with kernels.using_backend(backend):
        got_acc = kernels.active().CSRAccumulator()
    for lo, hi in _splits(log, cuts):
        ref_acc.advance(src, dst, lo, hi)
        got_acc.advance(src, dst, lo, hi)
        assert got_acc.num_vertices == ref_acc.num_vertices
        assert got_acc.snapshot(weights) == ref_acc.snapshot(weights)
        # windowed one-shot build over the same prefix
        ref_win = _pure().csr_from_window(src, dst, lo, hi, weights)
        with kernels.using_backend(backend):
            got_win = kernels.active().csr_from_window(src, dst, lo, hi, weights)
        assert got_win == ref_win


@pytest.mark.parametrize("backend", BACKENDS)
@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=3))
@settings(max_examples=60, deadline=None)
def test_graph_batch_parity(backend, log, cuts):
    cols = (log.timestamps(), log.src_indices(), log.dst_indices(),
            log.src_kind_codes(), log.dst_kind_codes())
    for lo, hi in _splits(log, cuts):
        fs_r, up_r, ew_r, vw_r = _pure().graph_batch(*cols, lo, hi)
        with kernels.using_backend(backend):
            fs_g, up_g, ew_g, vw_g = kernels.active().graph_batch(*cols, lo, hi)
        assert fs_g == fs_r
        assert up_g == up_r
        assert list(ew_g.items()) == list(ew_r.items())
        assert dict(vw_g) == dict(vw_r)


def _digraph_tuple(g):
    """Every observable of a WeightedDiGraph, insertion orders included."""
    return (
        [(v, g.vertex_kind(v), g.vertex_weight(v), g.first_seen(v))
         for v in g.vertices()],
        list(g.edges()),
        [list(g.predecessors(v).items()) for v in g.vertices()],
    )


@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=3))
@settings(max_examples=60, deadline=None)
def test_graph_batch_csr_bridge_matches_from_digraph(log, cuts):
    """KL's period bridge (``graph_batch`` → ``from_graph_batch``) lays
    out the same CSR arrays, in the same order, as the reference
    pipeline ``from_digraph(build_graph_columnar(...))``, whose period
    graph in turn equals the boxed ``build_graph`` fold of the same
    rows.  KL's proposal order and tie-breaks rest on this."""
    kr = kernels.active()
    cols = (log.timestamps(), log.src_indices(), log.dst_indices(),
            log.src_kind_codes(), log.dst_kind_codes())
    for lo, hi in _splits(log, cuts):
        first_seen, _upgrades, edge_weights, vertex_weights = (
            kr.graph_batch(*cols, lo, hi))
        got = CSRGraph.from_graph_batch(
            first_seen, edge_weights, vertex_weights, log.vertex_id)
        period = build_graph_columnar(log, lo, hi)
        ref = CSRGraph.from_digraph(period)
        for field in ("xadj", "adjncy", "adjwgt", "vwgt", "orig_ids"):
            assert getattr(got, field) == getattr(ref, field), field
        assert _digraph_tuple(period) == _digraph_tuple(build_graph(log[lo:hi]))


_CSR_FIELDS = ("xadj", "adjncy", "adjwgt", "vwgt", "orig_ids")


def _reference_csr(rows, unit):
    """The reference pipeline: boxed digraph -> undirected view -> CSR."""
    return CSRGraph.from_undirected(
        collapse_to_undirected(build_graph(rows), unit_vertex_weights=unit))


@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=4))
@settings(max_examples=60, deadline=None)
def test_stream_state_is_the_cumulative_graph(log, cuts):
    """After the windows of rows [0, hi), the stream state collapses to
    the CSR cold METIS used to partition (the cumulative digraph of
    those rows, collapsed with unit weights), and its activity is each
    vertex's weight in that digraph."""
    state = StreamState()
    for lo, hi in _splits(log, cuts):
        kernels.active().window_pass(*_stream_cols(log), lo, hi, state)
        got = CSRGraph.from_stream(state, log.vertex_id)
        ref = _reference_csr(log[:hi], unit=True)
        for field in _CSR_FIELDS:
            assert getattr(got, field) == getattr(ref, field), field
        graph = build_graph(log[:hi])
        assert state.activity == [
            graph.vertex_weight(log.vertex_id(d)) for d in range(state.num_vertices)]


@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=3))
@settings(max_examples=60, deadline=None)
def test_period_csr_matches_digraph_pipeline(log, cuts):
    """Cold P-METIS/R-METIS/TR-METIS partition ``period_csr``: the same
    CSR as collapsing the rows' boxed digraph with unit weights."""
    for lo, hi in _splits(log, cuts):
        got = period_csr(log, lo, hi)
        ref = _reference_csr(log[lo:hi], unit=True)
        for field in _CSR_FIELDS:
            assert getattr(got, field) == getattr(ref, field), field


# ----------------------------------------------------------------------
# refinement primitives on CSR graphs


@st.composite
def csr_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=0, max_value=40))
    edges = {}
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + draw(st.integers(1, 5))
    vwgt = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    graph = CSRGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()],
                                vwgt=vwgt)
    k = draw(st.integers(2, 4))
    part = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    return graph, part, k


@pytest.mark.parametrize("backend", BACKENDS)
@given(gpk=csr_graphs(), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_refinement_primitives_parity(backend, gpk, seed):
    graph, part, k = gpk
    assigned = [p if p >= 0 else 0 for p in part]  # fully-assigned variant
    order = list(range(graph.num_vertices))
    random.Random(seed).shuffle(order)
    pure = _pure()
    with kernels.using_backend(backend):
        kr = kernels.active()
        assert kr.part_weights(graph, assigned, k) == \
            pure.part_weights(graph, assigned, k)
        assert kr.part_weights(graph, part, k, skip_unassigned=True) == \
            pure.part_weights(graph, part, k, skip_unassigned=True)
        assert kr.boundary_list(graph, assigned) == \
            pure.boundary_list(graph, assigned)
        assert kr.cut_value(graph, assigned) == pure.cut_value(graph, assigned)
        assert kr.unassigned_list(part) == pure.unassigned_list(part)
        assert kr.hem_matching(graph, order) == pure.hem_matching(graph, order)


@st.composite
def refinement_cases(draw):
    """Larger CSR graphs + partitions for the batched refinement kernels.

    Sized past the numpy backend's small-input pure fallback so the
    vectorised paths are actually exercised; edge weights include 0 so
    the ``first_pos`` presence sentinel (not ``conn > 0``) is what
    distinguishes adjacent-with-zero-weight from not-adjacent.
    """
    n = draw(st.integers(min_value=1, max_value=48))
    m = draw(st.integers(min_value=0, max_value=140))
    edges = {}
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + draw(st.integers(0, 5))
    vwgt = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    graph = CSRGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()],
                                vwgt=vwgt)
    k = draw(st.integers(2, 5))
    part = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    return graph, part, k


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=refinement_cases(), seed=st.integers(0, 99),
       min_gain=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_batched_refinement_kernel_parity(backend, case, seed, min_gain):
    graph, part, k = case
    assigned = [p if p >= 0 else 0 for p in part]
    rng = random.Random(seed)
    subset = [v for v in range(graph.num_vertices) if rng.random() < 0.7]
    pure = _pure()
    with kernels.using_backend(backend):
        kr = kernels.active()
        assert kr.max_weighted_degree(graph) == \
            pure.max_weighted_degree(graph)
        for p in (part, assigned):
            assert kr.conn_matrix(graph, p, k, subset) == \
                pure.conn_matrix(graph, p, k, subset)
            assert kr.gain_vector(graph, p, subset) == \
                pure.gain_vector(graph, p, subset)
            assert kr.kl_proposals(graph, p, k, min_gain) == \
                pure.kl_proposals(graph, p, k, min_gain)


# ----------------------------------------------------------------------
# explicit edge cases


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_window_is_empty_everywhere(backend):
    log = ColumnarLog([Interaction(timestamp=0.0, src=7, dst=9, tx_id=0)])
    with kernels.using_backend(backend):
        kr = kernels.active()
        state = StreamState()
        batch = kr.window_pass(*_stream_cols(log), 1, 1, state)
        assert _batch_tuple(batch) == ([], [])
        assert _state_tuple(state) == _state_tuple(StreamState())
        assert kr.max_index(log.src_indices(), log.dst_indices(), 1, 1) == -1
        assert kr.account_window(log.src_indices(), log.dst_indices(),
                                 1, 1, (), [0, 0], 2) == \
            _pure().account_window(log.src_indices(), log.dst_indices(),
                                   1, 1, (), [0, 0], 2)
        assert kr.csr_from_window(log.src_indices(), log.dst_indices(),
                                  1, 1, "unit") == ([0], [], [], [], [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_vertex_self_loop_stream(backend):
    # one vertex interacting with itself: no edges, one first-seen
    log = ColumnarLog(
        Interaction(timestamp=float(i), src=5, dst=5, tx_id=i)
        for i in range(4)
    )
    ref_state = StreamState()
    ref = _pure().window_pass(*_stream_cols(log), 0, 4, ref_state)
    with kernels.using_backend(backend):
        kr = kernels.active()
        got_state = StreamState()
        got = kr.window_pass(*_stream_cols(log), 0, 4, got_state)
        assert _batch_tuple(got) == _batch_tuple(ref)
        assert _state_tuple(got_state) == _state_tuple(ref_state)
        assert got.new_edges == []
        assert got.placement_groups == [(0, 1, (0,))]
        assert got_state.activity == [4]
        assert got_state.num_edges == 0
        assert kr.csr_from_window(log.src_indices(), log.dst_indices(),
                                  0, 4, "activity") == \
            _pure().csr_from_window(log.src_indices(), log.dst_indices(),
                                    0, 4, "activity")


# ----------------------------------------------------------------------
# end-to-end: the paper sweep's serialized output is backend-invariant


def test_resultset_dumps_byte_equal_across_backends():
    from repro.experiments.run import run_experiment
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec(
        scale="tiny",
        methods=("hash", "fennel", "metis", "r-metis"),
        ks=(2, 4),
        window_hours=24.0,
    )
    dumps = {}
    for backend in kernels.available_backends():
        with kernels.using_backend(backend):
            dumps[backend] = run_experiment(spec).dumps()
    reference = dumps.pop("pure")
    for backend, text in dumps.items():
        assert text == reference, f"{backend} sweep output diverged"
