"""Unit tests for the time units and for time windows over the log.

A window is a half-open ``[start, end)`` row range of a
:class:`~repro.graph.columnar.ColumnarLog`; aligned windows stepped
over a log come from :func:`~repro.graph.analytics.compute_window_stats`
(and the replay engine), and a window's graph is
:func:`~repro.graph.builder.build_graph_columnar` of its rows.
"""

import pytest

from repro.graph.analytics import compute_window_stats
from repro.graph.builder import Interaction, build_graph_columnar
from repro.graph.columnar import ColumnarLog
from repro.graph.snapshot import (
    DAY,
    HOUR,
    METRIC_WINDOW,
    REPARTITION_PERIOD,
    WEEK,
)


def log_at(*timestamps):
    return ColumnarLog(
        Interaction(timestamp=ts, src=i, dst=i + 1, tx_id=i)
        for i, ts in enumerate(timestamps)
    )


def test_canonical_constants():
    assert METRIC_WINDOW == 4 * HOUR
    assert REPARTITION_PERIOD == 2 * WEEK
    assert WEEK == 7 * DAY


class TestWindow:
    def test_contains_half_open(self):
        log = log_at(0.0, 9.999, 10.0)
        assert log.window_bounds(0.0, 10.0) == (0, 2)
        assert [it.timestamp for it in log.window(0.0, 10.0)] == [0.0, 9.999]


class TestIterWindows:
    """Aligned windows stepped over a log's span."""

    def test_exact_coverage(self):
        windows = compute_window_stats(log_at(*map(float, range(10))), 2.5)
        assert [w.start_ts for w in windows] == [0.0, 2.5, 5.0, 7.5]
        assert [w.interactions for w in windows] == [3, 2, 3, 2]

    def test_no_gap_no_overlap(self):
        windows = compute_window_stats(log_at(*map(float, range(100))), 7.0)
        for a, b in zip(windows, windows[1:]):
            assert b.start_ts == a.start_ts + 7.0
        assert sum(w.interactions for w in windows) == 100

    def test_bad_width_raises(self):
        with pytest.raises(ValueError):
            compute_window_stats(log_at(0.0, 1.0), 0.0)


class TestWindowIndex:
    """The log indexes its rows by time: window row ranges and the
    graphs built from them."""

    @pytest.fixture()
    def log(self):
        return log_at(*map(float, range(20)))

    def test_span(self, log):
        assert log.first_timestamp == 0.0
        assert log.last_timestamp == 19.0

    def test_span_empty(self):
        log = ColumnarLog()
        assert log.first_timestamp == log.last_timestamp == float("-inf")
        assert log.window_bounds(0.0, 10.0) == (0, 0)

    def test_windows_cover_span(self, log):
        windows = compute_window_stats(log, 5.0)
        assert windows[0].start_ts == 0.0
        assert windows[-1].start_ts + 5.0 > 19.0

    def test_graph_in_window(self, log):
        g = build_graph_columnar(log, *log.window_bounds(5.0, 10.0))
        assert g.num_edges == 5

    def test_cumulative_graph_until(self, log):
        g = build_graph_columnar(log, 0, log.index_at(10.0))
        assert g.num_edges == 10

    def test_per_window_counts_sum_to_total(self, log):
        windows = compute_window_stats(log, 6.0)
        assert sum(w.interactions for w in windows) == 20
