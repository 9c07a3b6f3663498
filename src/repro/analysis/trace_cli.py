"""``repro-trace`` — dataset tooling in the spirit of the paper's
published trace.

The paper releases its extracted Ethereum interactions "in easily
understandable format" for further analysis and benchmarking; this CLI
does the equivalent for the synthetic trace, and analyses any trace in
either supported format (including a real one, dropped in):

    repro-trace export --scale small --out trace.txt.gz
    repro-trace export --scale small --format binary --out trace.rct
    repro-trace export --scale large --format v3 --out eth_large.rct
    repro-trace convert trace.txt.gz trace.rct
    repro-trace convert trace.rct trace_v3.rct --format v3
    repro-trace stats trace.rct --window-hours 24
    repro-trace verify trace.rct

Formats: text v1 (human-readable interchange), binary rctrace v2 (the
mmap-able columnar replay format) and compressed binary rctrace v3
(delta/varint columns + per-section zlib framing — the Ethereum-scale
storage format; see :mod:`repro.graph.io` for both layouts).  Binary
exports stream through a bounded-memory chunked writer, so
``--scale large --format v3`` emits a multi-million-row trace without
ever holding the log in memory.  ``stats``/``verify``/``convert``
sniff the input format and version from the file's magic, never the
extension.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.runner import SCALES, config_for_scale


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Export, convert, inspect and verify interaction traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("export", help="generate and write a synthetic trace")
    exp.add_argument("--scale", default="small", choices=SCALES)
    exp.add_argument("--seed", type=int, default=42)
    exp.add_argument("--out", required=True, help="output path (.gz supported)")
    exp.add_argument("--format", default="auto",
                     choices=("auto", "text", "binary", "v2", "v3"),
                     help="trace format; 'auto' picks binary (v2) for "
                     ".rct/.rct.gz paths, text otherwise; 'v3' writes "
                     "the compressed delta/varint format")

    conv = sub.add_parser("convert", help="convert a trace between formats")
    conv.add_argument("src", help="input trace (format sniffed)")
    conv.add_argument("dst", help="output path")
    conv.add_argument("--format", default="auto",
                      choices=("auto", "text", "binary", "v2", "v3"),
                      help="output format; 'auto' infers from dst "
                      "extension; 'v2'/'v3' force a binary version "
                      "(the v1/v2<->v3 upgrade path)")

    st = sub.add_parser("stats", help="descriptive statistics of a trace file")
    st.add_argument("path")
    st.add_argument("--window-hours", type=float, default=24.0,
                    help="window width for the per-window activity table "
                    "(default: 24; 0 disables the table)")

    ver = sub.add_parser("verify", help="check a trace file's integrity")
    ver.add_argument("path")

    args = parser.parse_args(argv)
    if args.command == "export":
        return _export(args)
    if args.command == "convert":
        return _convert(args)
    if args.command == "stats":
        return _stats(args)
    if args.command == "verify":
        return _verify(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _resolve_format(fmt: str, out_path: str) -> tuple:
    """CLI format token -> (``"text"``/``"binary"``, binary version)."""
    from repro.graph.io import TRACE_VERSION, TRACE_VERSION_V3, default_trace_format

    if fmt == "auto":
        fmt = default_trace_format(out_path)
    if fmt == "v2":
        return "binary", TRACE_VERSION
    if fmt == "v3":
        return "binary", TRACE_VERSION_V3
    return fmt, TRACE_VERSION


def _export(args) -> int:
    fmt, version = _resolve_format(args.format, args.out)
    if fmt == "binary":
        # stream through the chunked writer: bounded memory even at
        # --scale large (multi-million rows), identical bytes otherwise
        from repro.ethereum.export import export_workload_trace

        result = export_workload_trace(
            config_for_scale(args.scale, args.seed), args.out,
            version=version,
        )
        n, transactions = result.rows, result.transactions
        label = f"binary v{version}"
    else:
        from repro.ethereum.workload import generate_history

        from repro.graph.io import write_trace

        generated = generate_history(config_for_scale(args.scale, args.seed))
        n = write_trace(generated.builder.log, args.out)
        transactions = generated.num_transactions
        label = "text v1"
    print(f"wrote {n} interactions "
          f"({transactions} transactions) to {args.out} "
          f"[{label}]")
    return 0


def _convert(args) -> int:
    from repro.errors import TraceFormatError
    from repro.graph.io import convert_trace, trace_format, trace_version

    fmt, version = _resolve_format(args.format, args.dst)
    try:
        src_fmt = trace_format(args.src)
        src_ver = trace_version(args.src)
        n = convert_trace(args.src, args.dst, fmt=fmt, version=version)
    except TraceFormatError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    out_label = f"binary v{version}" if fmt == "binary" else "text v1"
    src_label = f"{src_fmt} v{src_ver}"
    print(f"converted {n} interactions: {args.src} [{src_label}] "
          f"-> {args.dst} [{out_label}]")
    return 0


def _stats(args) -> int:
    from repro.errors import TraceFormatError
    from repro.graph.analytics import (
        compute_trace_stats,
        compute_window_stats,
        render_trace_stats,
        render_window_stats,
    )
    from repro.graph.builder import build_graph_columnar
    from repro.graph.io import load_trace_log, trace_version

    try:
        version = trace_version(args.path)     # the one and only sniff
        fmt = "binary" if version != 1 else "text"
        log = load_trace_log(args.path, fmt=fmt)
    except TraceFormatError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    if not len(log):
        print("trace is empty", file=sys.stderr)
        return 1
    graph = build_graph_columnar(log)
    print(f"[{args.path}: {fmt} format (rctrace v{version}), "
          f"{len(log)} records]")
    print(render_trace_stats(compute_trace_stats(graph, log)))
    if args.window_hours > 0:
        window = args.window_hours * 3600.0
        print()
        print(render_window_stats(compute_window_stats(log, window), window))
    return 0


def _verify(args) -> int:
    from repro.errors import TraceFormatError
    from repro.graph.io import load_columnar, read_trace, trace_version

    try:
        version = trace_version(args.path)     # one sniff decides all
        if version != 1:
            # load_columnar's verify pass covers checksum, section
            # lengths/encodings, time-ordering, kind codes and bounds
            log = load_columnar(args.path, verify=True)
            print(f"OK: {len(log)} records, {log.num_vertices} vertices, "
                  f"binary v{version}, "
                  "checksum + ordering verified")
            return 0
        count = 0
        last_ts = float("-inf")
        for it in read_trace(args.path):
            if it.timestamp < last_ts:
                print(f"FAIL: out-of-order timestamp at record {count}",
                      file=sys.stderr)
                return 1
            last_ts = it.timestamp
            count += 1
    except TraceFormatError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {count} records, time-ordered, well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
