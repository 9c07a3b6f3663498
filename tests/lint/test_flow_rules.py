"""Project-rule behaviour beyond the fixture annotations.

The fixture suite pins *where* RL011–RL013 fire; these tests pin the
evidence they attach (call chains, message contents) and run the
store-identity rule against the real ``ExperimentSpec`` to prove it
catches the regression class it was built for: a spec field dropped
from the identity payload.  RL005's tests pin which constant shapes
the rctrace-drift rule evaluates at all.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]


def write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


class TestTaintChains:
    def test_rl011_carries_the_full_call_chain(self):
        report = lint_paths([str(FIXTURES / "rl011_bad")])
        (wall_clock,) = [
            f for f in findings_for(report, "RL011") if "wall clock" in f.message
        ]
        assert wall_clock.chain == (
            "rl011_bad.core.multireplay.MultiReplayEngine.run",
            "rl011_bad.core.helpers.prepare",
            "rl011_bad.core.helpers.jitter",
        )
        assert "call chain:" in wall_clock.message
        assert "MultiReplayEngine.run" in wall_clock.message

    def test_rl011_chain_is_serialized_in_json(self):
        report = lint_paths([str(FIXTURES / "rl011_bad")])
        finding = findings_for(report, "RL011")[0]
        assert finding.to_dict()["chain"] == list(finding.chain)

    def test_rl011_flags_unseeded_randomness_under_part_graph(self):
        report = lint_paths([str(FIXTURES / "rl011_bad")])
        (unseeded,) = [
            f for f in findings_for(report, "RL011") if "randomness" in f.message
        ]
        assert unseeded.chain[0].endswith("metis.api.part_graph")
        assert unseeded.path == "rl011_bad/metis/refine.py"


class TestPoolBoundary:
    def test_rl012_names_every_violation_kind(self):
        report = lint_paths([str(FIXTURES / "rl012_bad")])
        messages = " | ".join(f.message for f in findings_for(report, "RL012"))
        assert "lambda" in messages
        assert "helper() is defined inside a function" in messages
        assert "open file handle" in messages
        assert "buffer-backed ColumnarLog" in messages
        assert "_FORK_SHARED" in messages

    def test_rl012_sees_assigned_executors_too(self, tmp_path):
        write(
            tmp_path,
            "pool.py",
            """
            import concurrent.futures as futures

            def run(chunks):
                ex = futures.ProcessPoolExecutor(4)
                handle = ex.submit(lambda: len(chunks))
                return handle.result()
            """,
        )
        report = lint_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["RL012"]

    def test_rl012_fork_guard_must_guard_the_submit(self, tmp_path):
        # the guarded branch is fine; the same submit in the else
        # branch (spawn path) is not
        write(
            tmp_path,
            "pool.py",
            """
            import concurrent.futures as futures
            import multiprocessing

            _FORK_SHARED = None

            def chunk(keys):
                log = _FORK_SHARED
                return log, keys

            def run(chunks):
                forked = multiprocessing.get_start_method() == "fork"
                with futures.ProcessPoolExecutor() as ex:
                    if forked:
                        good = ex.submit(chunk, chunks)
                    else:
                        bad = ex.submit(chunk, chunks)
                return good, bad
            """,
        )
        report = lint_paths([str(tmp_path)])
        (finding,) = report.findings
        assert finding.rule == "RL012"
        assert finding.line == 17  # the else-branch submit only


class TestStoreIdentity:
    def test_rl013_names_the_missing_field(self):
        report = lint_paths([str(FIXTURES / "rl013_bad")])
        messages = [f.message for f in findings_for(report, "RL013")]
        assert any("'params' of MethodSpec" in m for m in messages)
        assert any("'window_hours' of ExperimentSpec" in m for m in messages)
        assert any("'fmt' of TraceSource" in m for m in messages)
        assert any(
            "SyntheticSource keys the result store but defines no" in m
            for m in messages
        )

    def test_real_experiment_spec_is_identity_complete(self, tmp_path):
        source = (REPO / "src/repro/experiments/spec.py").read_text()
        write(tmp_path, "spec.py", source)
        report = lint_paths([str(tmp_path / "spec.py")])
        assert findings_for(report, "RL013") == []

    def test_rl013_catches_a_field_dropped_from_the_real_payload(self, tmp_path):
        # the regression class RL013 exists for: delete window_hours
        # from ExperimentSpec.workload_id and the store would serve
        # cached results across different window widths
        source = (REPO / "src/repro/experiments/spec.py").read_text()
        broken = source.replace("-win{self.window_hours:g}h", "")
        assert broken != source  # the surgery actually happened
        write(tmp_path, "spec.py", broken)
        report = lint_paths([str(tmp_path / "spec.py")])
        (finding,) = findings_for(report, "RL013")
        assert "'window_hours' of ExperimentSpec" in finding.message
        assert "collide in the result store" in finding.message


class TestTraceFormatConsts:
    @pytest.mark.parametrize(
        "evaluated, skipped",
        [
            ('_HEADER = struct.Struct("<I")', '_HEADER = struct.Struct("<I", x=1)'),
            (
                'ENC_A = 3\n_ENC_NAMES = {1: "a"}',
                'ENC_A = 3\n_ENC_NAMES = {1: b"a"}',
            ),
        ],
        ids=["struct-keyword", "bytes-constant"],
    )
    def test_rl005_ignores_constants_outside_its_grammar(
        self, tmp_path, evaluated, skipped
    ):
        # a shape outside RL005's literal grammar leaves the name
        # unbound, so it cannot raise a finding
        def rl005(source):
            write(tmp_path, "pkg/trace_io.py", "import struct\n" + source + "\n")
            return findings_for(
                lint_paths([str(tmp_path / "pkg")], select=["RL005"]), "RL005"
            )

        assert len(rl005(evaluated)) == 1
        assert rl005(skipped) == []
