"""Graph substrate: the weighted directed "blockchain graph" of the paper.

The paper (§II-B) models Ethereum as a directed graph whose vertices are
accounts and smart contracts and whose edges are interactions produced by
transactions.  Vertex weights capture how often a vertex participates in
transactions; edge weights capture how often an interaction (caller →
callee) occurred.

Public surface:

* :class:`~repro.graph.digraph.WeightedDiGraph` — the graph container;
* :class:`~repro.graph.columnar.ColumnarLog` — the interaction log:
  parallel arrays with interned vertex ids and O(log N) window slicing,
  written by the workload generator and read by every consumer;
* :class:`~repro.graph.builder.GraphBuilder` — the holder of a
  generated history's ``ColumnarLog``; graphs of any row range of the
  log (cumulative for METIS, a window for R-METIS) come from
  :func:`~repro.graph.builder.build_graph_columnar`;
* :mod:`~repro.graph.undirected` — collapse to the weighted undirected
  graph fed to partitioners;
* :mod:`~repro.graph.io` — trace readers/writers in the paper's published
  dataset spirit;
* :mod:`~repro.graph.generators` — synthetic test graphs.
"""

from repro.graph.digraph import VertexKind, WeightedDiGraph
from repro.graph.builder import GraphBuilder, Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.undirected import UndirectedView, collapse_to_undirected

__all__ = [
    "VertexKind",
    "WeightedDiGraph",
    "GraphBuilder",
    "Interaction",
    "ColumnarLog",
    "UndirectedView",
    "collapse_to_undirected",
]
