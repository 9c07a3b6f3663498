"""Unit tests for ShardAssignment."""

import pytest

from repro.core.assignment import ShardAssignment
from repro.errors import InvalidPartitionError


class TestBasics:
    def test_k_validated(self):
        with pytest.raises(InvalidPartitionError):
            ShardAssignment(0)

    def test_assign_and_lookup(self):
        a = ShardAssignment(2)
        a.assign(10, 1)
        assert a[10] == 1
        assert a.shard_of(10) == 1
        assert 10 in a
        assert len(a) == 1

    def test_assign_twice_rejected(self):
        a = ShardAssignment(2)
        a.assign(10, 1)
        with pytest.raises(InvalidPartitionError, match="already assigned"):
            a.assign(10, 0)

    def test_shard_range_checked(self):
        a = ShardAssignment(2)
        with pytest.raises(InvalidPartitionError, match="out of range"):
            a.assign(1, 5)

    def test_move_returns_old(self):
        a = ShardAssignment(2)
        a.assign(1, 0)
        assert a.move(1, 1) == 0
        assert a[1] == 1

    def test_move_unassigned_rejected(self):
        a = ShardAssignment(2)
        with pytest.raises(InvalidPartitionError, match="not assigned"):
            a.move(1, 0)

    def test_get_default(self):
        a = ShardAssignment(2)
        assert a.get(5) is None
        assert a.get(5, -1) == -1


class TestAccounting:
    def test_counts_track_assign_and_move(self):
        a = ShardAssignment(3)
        a.assign(1, 0)
        a.assign(2, 0)
        a.assign(3, 1)
        assert a.counts == (2, 1, 0)
        a.move(1, 2)
        assert a.counts == (1, 1, 1)

    def test_weights_track(self):
        a = ShardAssignment(2)
        a.assign(1, 0, weight=5)
        a.assign(2, 1, weight=3)
        a.add_weight(1, 2)
        assert a.weights == (7, 3)
        a.move(1, 1, weight=7)
        assert a.weights == (0, 10)

    def test_move_same_shard_noop(self):
        a = ShardAssignment(2)
        a.assign(1, 0, weight=5)
        a.move(1, 0, weight=5)
        assert a.counts == (1, 0)
        assert a.weights == (5, 0)

    def test_lightest_shard(self):
        a = ShardAssignment(3)
        a.assign(1, 0)
        a.assign(2, 2)
        assert a.lightest_shard() == 1

    def test_lightest_by_weight(self):
        a = ShardAssignment(2)
        a.assign(1, 0, weight=10)
        a.assign(2, 1, weight=1)
        a.assign(3, 1, weight=1)
        assert a.lightest_shard(by_weight=True) == 1
        assert a.lightest_shard(by_weight=False) == 0


class TestBalances:
    def test_static_balance_empty(self):
        assert ShardAssignment(4).static_balance() == 1.0

    def test_static_balance_perfect(self):
        a = ShardAssignment(2)
        a.assign(1, 0)
        a.assign(2, 1)
        assert a.static_balance() == 1.0

    def test_static_balance_skewed(self):
        a = ShardAssignment(2)
        for v in range(3):
            a.assign(v, 0)
        a.assign(9, 1)
        assert a.static_balance() == pytest.approx(3 * 2 / 4)

    def test_dynamic_balance(self):
        a = ShardAssignment(2)
        a.assign(1, 0, weight=9)
        a.assign(2, 1, weight=1)
        assert a.dynamic_balance() == pytest.approx(9 * 2 / 10)


class TestCopyValidate:
    def test_copy_independent(self):
        a = ShardAssignment(2)
        a.assign(1, 0)
        b = a.copy()
        b.move(1, 1)
        assert a[1] == 0

    def test_validate_detects_corruption(self):
        a = ShardAssignment(2)
        a.assign(1, 0)
        a._counts[0] = 99  # simulate cache corruption
        with pytest.raises(InvalidPartitionError, match="out of sync"):
            a.validate()

    def test_validate_ok(self):
        a = ShardAssignment(2)
        a.assign(1, 0)
        a.assign(2, 1)
        a.validate()

    def test_validate_with_graph_checks_weights(self):
        from repro.graph.digraph import WeightedDiGraph

        g = WeightedDiGraph()
        g.add_vertex(1, weight=3)
        g.add_vertex(2, weight=5)
        a = ShardAssignment(2)
        a.assign(1, 0, weight=3)
        a.assign(2, 1, weight=5)
        a.validate(g)

    def test_validate_with_graph_catches_weight_drift(self):
        # a move() called with the wrong weight drifts the weight cache
        # while leaving the counts intact — the count-only validate()
        # used to pass this silently
        from repro.graph.digraph import WeightedDiGraph

        g = WeightedDiGraph()
        g.add_vertex(1, weight=3)
        g.add_vertex(2, weight=5)
        a = ShardAssignment(2)
        a.assign(1, 0, weight=3)
        a.assign(2, 1, weight=5)
        a.move(1, 1, weight=99)  # wrong weight: cache now drifted
        a.validate()  # counts still consistent: passes
        with pytest.raises(InvalidPartitionError, match="weight cache"):
            a.validate(g)

    def test_validate_with_graph_ignores_unseen_vertices(self):
        # repartition proposals may pre-place vertices the replay has
        # not streamed yet; they carry zero weight
        from repro.graph.digraph import WeightedDiGraph

        g = WeightedDiGraph()
        g.add_vertex(1, weight=2)
        a = ShardAssignment(2)
        a.assign(1, 0, weight=2)
        a.assign(99, 1)  # not in the graph
        a.validate(g)

    def test_as_dict_snapshot(self):
        a = ShardAssignment(2)
        a.assign(1, 0)
        d = a.as_dict()
        a.move(1, 1)
        assert d == {1: 0}


class TestNumbering:
    """The shards live in an array over the vertex numbering the
    assignment carries (-1 while unassigned)."""

    def test_numbered_vertices_start_unassigned(self):
        a = ShardAssignment(2, ids=[30, 10, 20])
        assert a.ids == [30, 10, 20]
        assert a.index == {30: 0, 10: 1, 20: 2}
        assert list(a.shards) == [-1, -1, -1]
        assert len(a) == 0 and 10 not in a and a.get(10) is None
        assert a.static_balance() == 1.0

    def test_place_is_assign_by_dense_index(self):
        a = ShardAssignment(2, ids=[30, 10, 20])
        a.place(1, 1)
        assert a[10] == 1 and a.counts == (0, 1)
        assert list(a.shards) == [-1, 1, -1]
        assert a.as_dict() == {10: 1}
        with pytest.raises(InvalidPartitionError, match="vertex 10 already assigned"):
            a.place(1, 0)
        with pytest.raises(InvalidPartitionError, match="out of range"):
            a.place(0, 2)

    def test_assign_interns_outside_ids_at_the_end(self):
        a = ShardAssignment(2, ids=[30, 10])
        a.assign(10, 0)
        a.assign(99, 1)
        assert a.ids == [30, 10, 99]
        assert a.index[99] == 2
        assert list(a.shards) == [-1, 0, 1]
        assert list(a.items()) == [(10, 0), (99, 1)]

    def test_repeated_id_rejected(self):
        with pytest.raises(InvalidPartitionError, match="repeats"):
            ShardAssignment(2, ids=[1, 2, 1])

    def test_copy_owns_its_numbering(self):
        a = ShardAssignment(2, ids=[5])
        b = a.copy()
        b.assign(6, 1)
        b.assign(5, 0)
        assert a.ids == [5] and 5 not in a and list(a.shards) == [-1]
