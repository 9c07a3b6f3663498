"""Command-line entry point: figures and declarative sweeps.

Installed as ``repro-experiments``::

    repro-experiments fig3 --scale small --seed 42
    repro-experiments all  --scale tiny
    repro-experiments sweep --methods hash,metis,"tr-metis?warm=true" \
        --grid 2,4,8 --jobs 4 --store results/ --out sweep.json
    repro-experiments --list-methods

``sweep`` runs an :class:`~repro.experiments.spec.ExperimentSpec`
built from ``--methods`` (comma-separated method strings, parameters
in query form) × ``--grid`` (shard counts), fanning uncached cells
over ``--jobs`` processes; ``--store DIR`` makes the sweep resumable
and ``--out FILE`` serializes the
:class:`~repro.experiments.results.ResultSet` as JSON.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.analysis.runner import SCALES, ExperimentRunner
from repro.experiments import ResultStore
from repro.core.registry import PAPER_ORDER, available_methods, method_params

FIGURES = ["fig1", "fig2", "fig3", "fig4", "fig5", "pitfall"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate figures from 'Challenges and Pitfalls of "
        "Partitioning Blockchains' (DSN 2018) on a synthetic trace, or "
        "run declarative method sweeps.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=FIGURES + ["all", "sweep"],
        help="which artifact to regenerate, or 'sweep' for a custom grid",
    )
    parser.add_argument("--scale", default="small", choices=SCALES,
                        help="workload scale (default: small)")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument("--source", default=None, metavar="TRACE",
                        help="replay a trace file (text v1 or binary "
                        "rctrace v2) instead of the synthetic workload; "
                        "binary traces mmap per worker (see repro-trace "
                        "export --format binary)")
    parser.add_argument("--k", type=int, default=None,
                        help="shard count override (fig4/pitfall)")
    parser.add_argument("--window-hours", type=float, default=24.0,
                        help="metric window width in hours (paper: 4)")
    parser.add_argument("--methods", default=None,
                        help="comma-separated method strings for 'sweep' "
                        "(e.g. hash,metis,tr-metis?warm=true); default: "
                        "the paper's five methods")
    parser.add_argument("--grid", default=None,
                        help="comma-separated shard counts for 'sweep' "
                        "(default: 2,4,8)")
    parser.add_argument("--execution", default=None, metavar="SPEC",
                        help="attach sharded-execution metrics to every "
                        "sweep cell: a mode (2pc, migrate) or "
                        "field=value pairs joined with '&' (e.g. "
                        "\"mode=migrate&arrival_rate=2000\"); see "
                        "docs/execution.md")
    parser.add_argument("--replay-seed", type=int, default=1,
                        help="method/replay seed (default: 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for uncached grid cells")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory (sweeps resume from it)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the sweep's ResultSet as JSON")
    parser.add_argument("--list-methods", action="store_true",
                        help="list available methods and their parameters")
    args = parser.parse_args(argv)

    if args.list_methods:
        return _list_methods()
    if args.command is None:
        parser.error("a command is required (or use --list-methods)")

    if args.source and args.command in ("fig1", "fig2", "all"):
        parser.error(
            f"{args.command} needs the synthetic substrate (chain/state); "
            "--source only applies to replay-driven commands "
            "(sweep, fig3, fig4, fig5, pitfall)"
        )
    if args.execution and args.command != "sweep":
        parser.error("--execution only applies to 'sweep'")
    runner = ExperimentRunner(
        scale=args.scale,
        seed=args.seed,
        metric_window_hours=args.window_hours,
        jobs=args.jobs,
        store=ResultStore(args.store) if args.store else None,
        source=args.source,
        execution=args.execution,
    )
    start = time.time()
    if args.command == "sweep":
        _run_sweep(runner, args)
    else:
        wanted = FIGURES if args.command == "all" else [args.command]
        for name in wanted:
            _run_one(name, runner, args)
            print()
    origin = (
        f"source={args.source}" if args.source
        else f"scale={args.scale}, seed={args.seed}"
    )
    print(f"[done in {time.time() - start:.1f}s, {origin}]")
    return 0


def _list_methods() -> int:
    for name in available_methods():
        params = method_params(name)
        suffix = f"  ({', '.join(params)})" if params else ""
        print(f"{name}{suffix}")
    print(
        "\nparameterise with query syntax, e.g. "
        "\"tr-metis?warm=true&cut_threshold=0.3\""
    )
    return 0


def _run_sweep(runner: ExperimentRunner, args) -> None:
    from repro.analysis.render import ascii_table, format_si

    methods = (
        [m for m in args.methods.split(",") if m]
        if args.methods
        else list(PAPER_ORDER)
    )
    ks = (
        [int(k) for k in args.grid.split(",") if k]
        if args.grid
        else [2, 4, 8]
    )
    spec = runner.spec(methods, ks, (args.replay_seed,))
    print(f"sweep: {len(spec.cells())} cells "
          f"({len(spec.methods)} methods x {len(spec.ks)} shard counts), "
          f"jobs={args.jobs}, workload={spec.workload_id()}")
    rs = runner.run(spec)
    if runner.store is not None and runner.store.declined:
        reasons = ", ".join(
            f"{reason}={n}" for reason, n in sorted(runner.store.declined.items())
        )
        print(f"[store declined and recomputed: {reasons}]")
    rows = [
        (
            cell.method,
            cell.k,
            f"{cell.mean('dynamic_edge_cut'):.3f}",
            f"{cell.mean('dynamic_balance'):.3f}",
            format_si(cell.total_moves),
            cell.num_repartitions,
        )
        for cell in rs
    ]
    print(ascii_table(
        ["method", "k", "dyn edge-cut", "dyn balance", "moves", "repartitions"],
        rows,
        title="sweep results (means over active windows)",
    ))
    if spec.execution is not None:
        from repro.analysis.execution import (
            compute_execution,
            render_execution,
            render_throughput_vs_k,
        )

        exec_rows = compute_execution(rs)
        print()
        print(render_execution(exec_rows, mode=spec.execution.mode))
        print()
        print(render_throughput_vs_k(exec_rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rs.dumps())
        print(f"[resultset: {args.out}]")


def _run_one(name: str, runner: ExperimentRunner, args) -> None:
    if name == "fig1":
        from repro.analysis.fig1 import compute_fig1, render_fig1

        print(render_fig1(compute_fig1(runner.workload)))
    elif name == "fig2":
        from repro.analysis.fig2 import compute_fig2, render_fig2

        report = compute_fig2(runner.workload)
        print(render_fig2(report) if report else "fig2: no early contract found")
    elif name == "fig3":
        from repro.analysis.fig3 import compute_fig3, render_fig3

        print(render_fig3(compute_fig3(runner)))
    elif name == "fig4":
        from repro.analysis.fig4 import compute_fig4, render_fig4

        for k in ((args.k,) if args.k else (2, 8)):
            print(render_fig4(compute_fig4(runner, k)))
            print()
    elif name == "fig5":
        from repro.analysis.fig5 import compute_fig5, render_fig5

        print(render_fig5(compute_fig5(runner)))
    elif name == "pitfall":
        from repro.analysis.pitfall import compute_pitfall, render_pitfall

        print(render_pitfall(compute_pitfall(runner, k=args.k or 8)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)


if __name__ == "__main__":
    sys.exit(main())
