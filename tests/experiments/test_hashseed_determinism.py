"""Dynamic determinism smoke: results must not depend on PYTHONHASHSEED.

reprolint's RL002 bans hash-ordered set iteration statically; this is
the dynamic counterpart.  A tiny two-method sweep is executed in fresh
interpreters under *different* hash seeds, once plain and once with
migrate-mode execution (whose executor mutates a dict assignment and
tallies votes in dicts), and the fully serialized ResultSet dumps must
be byte-identical — any hash-order dependence in replay, execution,
metrics, or serialization shows up as a diff.  CI runs the same check
as a dedicated job.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_SWEEP = """\
from repro.experiments.run import run_experiment
from repro.experiments.spec import ExperimentSpec

for execution in (None, "mode=migrate"):
    spec = ExperimentSpec(
        scale="tiny", workload_seed=42, methods=("hash", "fennel"), ks=(2,),
        window_hours=24.0, execution=execution,
    )
    print(run_experiment(spec).dumps())
"""


def run_sweep(hashseed):
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO / "src"),
        "PYTHONHASHSEED": str(hashseed),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP],
        capture_output=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_resultset_identical_across_hash_seeds():
    dump_a = run_sweep(0)
    dump_b = run_sweep(42)
    assert dump_a, "sweep produced no output"
    assert dump_a == dump_b, (
        "ResultSet dump depends on PYTHONHASHSEED — some set/dict "
        "iteration order is leaking into results"
    )
