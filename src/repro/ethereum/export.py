"""Ethereum-workload → trace-file ingestion (bounded memory).

The paper's pipeline starts from a real multi-million-row Ethereum
transaction trace.  This module is the repo's equivalent ingestion
path: it drives the full chain/EVM workload generator
(:mod:`repro.ethereum.workload`) at any scale — including the
``large`` export tier (~2M transactions, multi-million interaction
rows) — and streams the interaction log straight into a binary
rctrace file through :class:`~repro.graph.io.ChunkedTraceWriter`.

Nothing log-sized is ever materialised: the generator's
``interaction_sink`` hook bypasses the
:class:`~repro.graph.builder.GraphBuilder` log, and the chunked writer
encodes/spills columns every ``chunk_rows`` rows, so peak memory is
O(chain state + chunk + vertex-intern table) regardless of trace
length.  The emitted file is byte-identical to
``write_columnar(generate_history(cfg).builder.log, path,
version=...)`` — asserted in ``tests/ethereum/test_workload.py``.

Typical pipeline (see README "Trace datasets")::

    from repro.ethereum.export import export_workload_trace
    from repro.ethereum.workload import WorkloadConfig

    export_workload_trace(WorkloadConfig.large(seed=42), "eth_large.rct")
    # then: repro-trace stats/verify, repro-experiments sweep --source
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Optional, Union

from repro.ethereum.workload import WorkloadConfig, WorkloadGenerator
from repro.graph.io import TRACE_VERSION_V3, ChunkedTraceWriter


@dataclasses.dataclass(frozen=True)
class TraceExportResult:
    """What an export produced (the CLI report surface)."""

    path: str
    version: int
    rows: int                #: interaction rows written
    vertices: int            #: distinct vertices in the trace
    transactions: int        #: transactions the chain executed
    file_bytes: int          #: size of the emitted trace file


def export_workload_trace(
    config: WorkloadConfig,
    path: Union[str, os.PathLike],
    version: int = TRACE_VERSION_V3,
    compress: bool = True,
    chunk_rows: int = 1 << 18,
    progress: Optional[Callable[[int, int], None]] = None,
) -> TraceExportResult:
    """Generate the synthetic history and stream it into a trace file.

    ``version`` selects rctrace v2 or v3 (default: v3, the compressed
    format — the right choice for the ``large`` tier where trace bytes
    dominate).  ``progress`` is forwarded to the generator
    (``progress(executed, total_transactions)`` per block).

    On any failure the partial spill state is discarded and no output
    file is left behind.
    """
    writer = ChunkedTraceWriter(
        path, version=version, chunk_rows=chunk_rows, compress=compress
    )
    try:
        generator = WorkloadGenerator(config, interaction_sink=writer.append)
        generator.run(progress)
        vertices = writer.num_vertices
        rows = writer.close()
    except BaseException:
        writer.abort()
        raise
    return TraceExportResult(
        path=os.fspath(path),
        version=version,
        rows=rows,
        vertices=vertices,
        transactions=generator.chain.total_transactions,
        file_bytes=os.path.getsize(path),
    )
