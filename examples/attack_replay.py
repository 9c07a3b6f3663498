#!/usr/bin/env python
"""The 2016 DoS attack and the METIS balance anomaly (paper Fig. 3b).

This example zooms into the paper's most interesting finding: after the
autumn-2016 attack flooded the chain with dummy accounts, METIS — which
balances *vertex counts* — parks the dummies on one shard and the live
economy on the other.  Static balance looks perfect; dynamic balance
(actual load) approaches 2 with two shards.

The script replays the same history through METIS and R-METIS and
prints per-quarter dynamic balance, showing R-METIS's fix: partitioning
only the recently-active window graph ignores dead vertices.

Run:  python examples/attack_replay.py
"""

from repro import WorkloadConfig, generate_history, make_method, replay_method
from repro.ethereum.history import ATTACK_END, ATTACK_START, month_label
from repro.graph.snapshot import DAY, HOUR


def quarter_means(series, start, end, metric):
    pts = [p for p in series.points if start <= p.ts < end and p.interactions > 0]
    if not pts:
        return float("nan")
    return sum(getattr(p, metric) for p in pts) / len(pts)


def main() -> None:
    print("generating history with the attack window "
          f"({month_label(ATTACK_START)} - {month_label(ATTACK_END)})...")
    history = generate_history(WorkloadConfig.small(seed=11))
    log = history.builder.log

    # count the throwaway accounts the attack minted
    graph = history.graph
    attack_vertices = sum(
        1 for v in graph.vertices()
        if ATTACK_START <= graph.first_seen(v) < ATTACK_END
    )
    print(f"  vertices born in the attack window: {attack_vertices} "
          f"of {graph.num_vertices} total")

    results = {}
    for name in ("metis", "r-metis"):
        method = make_method(name, k=2, seed=1)
        results[name] = replay_method(log, method, metric_window=24 * HOUR)

    span_start = log.first_timestamp
    span_end = log.last_timestamp
    quarter = 91 * DAY
    print(f"\n{'quarter':>10s}  {'METIS dyn-bal':>14s}  {'R-METIS dyn-bal':>16s}")
    t = span_start
    while t < span_end:
        m = quarter_means(results["metis"].series, t, t + quarter, "dynamic_balance")
        r = quarter_means(results["r-metis"].series, t, t + quarter, "dynamic_balance")
        marker = "  <- attack" if t <= ATTACK_START < t + quarter else ""
        print(f"{month_label(t):>10s}  {m:14.3f}  {r:16.3f}{marker}")
        t += quarter

    print(
        "\nExpected shape: METIS dynamic balance degrades after the attack\n"
        "(dummy vertices create an artificial static balance) while\n"
        "R-METIS, partitioning only the active window, stays balanced."
    )


if __name__ == "__main__":
    main()
