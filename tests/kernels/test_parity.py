"""Property tests: the numpy backend is bit-identical to ``pure``.

The pure-python backend is the oracle — a straight transliteration of
the per-row loops the kernels replaced.  The numpy backend's own forms
(its ``ACCELERATED`` kernels; every other name is the pure object
itself, see ``test_backend.py``) must reproduce its outputs *exactly*,
including dict key order where the contract guarantees one (edge
first-occurrence order feeds the cumulative graph's adjacency
insertion order, which cold METIS results depend on).  Logs are
arbitrary: self-loops, repeated edges, contract upgrades, empty
windows and single-vertex (pure self-loop) streams all appear in the
strategy.  Where numpy does not import, ``BACKENDS`` is empty and the
parametrised cases skip.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import VertexKind
from repro.kernels import StreamState
from repro.metis.graph import CSRGraph

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
    # vertex_weights order is NOT part of the contract (consumers look
    # weights up by key); everything else is compared order-sensitively
    return (
        batch.first_seen,
        batch.upgrades,
        list(batch.edge_weights.items()),
        dict(batch.vertex_weights),
        batch.new_edges,
        batch.placement_groups,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=4))
@settings(max_examples=60, deadline=None)
def test_window_pass_parity(backend, log, cuts):
    cols = (log.timestamps(), log.src_indices(), log.dst_indices(),
            log.tx_ids(), log.src_kind_codes(), log.dst_kind_codes())
    ref_state, got_state = StreamState(), StreamState()
    for lo, hi in _splits(log, cuts):
        ref = _pure().window_pass(*cols, lo, hi, ref_state)
        with kernels.using_backend(backend):
            got = kernels.active().window_pass(*cols, lo, hi, got_state)
        assert _batch_tuple(got) == _batch_tuple(ref)
        assert got_state.max_vertex == ref_state.max_vertex
        assert got_state.edge_seen == ref_state.edge_seen
        assert got_state.contract_known == ref_state.contract_known
        ref_state.record_new_edges(ref.new_edges)
        got_state.record_new_edges(got.new_edges)
    assert list(got_state.esrc) == list(ref_state.esrc)
    assert list(got_state.edst) == list(ref_state.edst)


@pytest.mark.parametrize("backend", BACKENDS)
@given(log=columnar_logs(), cuts=st.lists(st.floats(0, 1), max_size=3),
       k=st.integers(2, 5), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_account_window_and_static_cut_parity(backend, log, cuts, k, seed):
    src, dst = log.src_indices(), log.dst_indices()
    cols = (log.timestamps(), src, dst, log.tx_ids(),
            log.src_kind_codes(), log.dst_kind_codes())
    rng = random.Random(seed)
    shard = [rng.randrange(k) for _ in range(log.num_vertices)]
    state = StreamState()
    for lo, hi in _splits(log, cuts):
        batch = _pure().window_pass(*cols, lo, hi, state)
        state.record_new_edges(batch.new_edges)
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


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(-8, 8),
                          st.booleans()),
                max_size=60))
@settings(max_examples=100, deadline=None)
def test_gain_buckets_match_lazy_deletion_heap(ops):
    """GainBuckets pop order == heap ordered by (-gain, push counter).

    Simulates the FM usage pattern: interleaved pushes (re-pushing a
    vertex changes its current gain, making older entries stale) and
    pops with the caller-side stale/done skipping both structures
    contract to.  The sequences of *valid* pops must be identical.
    """
    import heapq

    from repro.kernels import GainBuckets

    buckets = GainBuckets(8)
    heap = []
    counter = 0
    cur = {}
    done = set()

    def pop_buckets():
        while True:
            entry = buckets.pop()
            if entry is None:
                return None
            v, g = entry
            if v in done or cur.get(v) != g:
                continue
            return v, g

    def pop_heap():
        while heap:
            neg_g, _, v = heapq.heappop(heap)
            if v in done or cur.get(v) != -neg_g:
                continue
            return v, -neg_g
        return None

    def check_one_pop():
        got = pop_buckets()
        ref = pop_heap()
        assert got == ref
        if got is not None:
            done.add(got[0])
        return got

    for v, g, do_pop in ops:
        if do_pop:
            check_one_pop()
        else:
            cur[v] = g
            buckets.push(v, g)
            counter += 1
            heapq.heappush(heap, (-g, counter, v))
    while check_one_pop() is not None:
        pass


# ----------------------------------------------------------------------
# explicit edge cases


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_window_is_empty_everywhere(backend):
    log = ColumnarLog([Interaction(timestamp=0.0, src=7, dst=9, tx_id=0)])
    cols = (log.timestamps(), log.src_indices(), log.dst_indices(),
            log.tx_ids(), log.src_kind_codes(), log.dst_kind_codes())
    with kernels.using_backend(backend):
        kr = kernels.active()
        batch = kr.window_pass(*cols, 1, 1, StreamState())
        assert _batch_tuple(batch) == ([], [], [], {}, [], [])
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
    cols = (log.timestamps(), log.src_indices(), log.dst_indices(),
            log.tx_ids(), log.src_kind_codes(), log.dst_kind_codes())
    ref = _pure().window_pass(*cols, 0, 4, StreamState())
    with kernels.using_backend(backend):
        kr = kernels.active()
        got = kr.window_pass(*cols, 0, 4, StreamState())
        assert _batch_tuple(got) == _batch_tuple(ref)
        assert got.new_edges == []
        assert got.first_seen == [(0, 0, 0.0)]
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
