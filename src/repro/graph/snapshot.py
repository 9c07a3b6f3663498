"""Canonical time units of the experiments.

The experiments sample metrics over *4-hour windows* (paper Fig. 3) and
repartition over *two-week periods* (METIS / R-METIS).  A window of the
interaction log is a row range of its
:class:`~repro.graph.columnar.ColumnarLog`
(:meth:`~repro.graph.columnar.ColumnarLog.window_bounds`), and the
graph of a window is :func:`~repro.graph.builder.build_graph_columnar`
of that range.
"""

#: Seconds per canonical units used throughout the experiments.
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY

#: The paper samples metrics every four hours...
METRIC_WINDOW = 4 * HOUR
#: ...and repartitions every two weeks.
REPARTITION_PERIOD = 2 * WEEK
