"""Engine-level tests: discovery, suppressions, report/CLI contracts."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import get_rule, lint_paths
from repro.lint.cli import main
from repro.lint.engine import collect_files
from repro.lint.rules import RULES

REPO = Path(__file__).resolve().parents[2]


def write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


class TestDiscovery:
    def test_skips_fixture_pycache_and_hidden_dirs(self, tmp_path):
        write(tmp_path, "pkg/ok.py", "X = 1\n")
        write(tmp_path, "pkg/fixtures/bad.py", "X = 1\n")
        write(tmp_path, "pkg/__pycache__/ghost.py", "X = 1\n")
        write(tmp_path, "pkg/.hidden/secret.py", "X = 1\n")
        write(tmp_path, "pkg/notes.txt", "not python\n")
        files = collect_files([str(tmp_path)])
        assert [Path(f).name for f in files] == ["ok.py"]

    def test_explicit_file_always_included(self, tmp_path):
        bad = write(tmp_path, "fixtures/bad.py", "X = 1\n")
        assert collect_files([str(bad)]) == [str(bad)]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([str(tmp_path / "nope")])

    def test_single_dir_arg_keeps_scope_segment(self, tmp_path):
        # linting <root>/core directly must still expose the "core"
        # path segment to scoped rules (root is the argument's parent)
        write(
            tmp_path,
            "core/bad.py",
            """
            def f(edges):
                for v in {d for _, d in edges}:
                    print(v)
            """,
        )
        report = lint_paths([str(tmp_path / "core")])
        assert [f.rule for f in report.findings] == ["RL002"]
        assert report.findings[0].path == "core/bad.py"


class TestSuppressions:
    def test_directive_inside_string_is_ignored(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            import random

            def f():
                return random.random(), "# reprolint: disable=RL001"
            """,
        )
        report = lint_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["RL001"]
        assert report.suppressed == 0

    def test_unrelated_rule_id_does_not_suppress(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            import random

            def f():
                return random.random()  # reprolint: disable=RL007 -- wrong id
            """,
        )
        report = lint_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["RL001"]


class TestParseErrors:
    def test_broken_file_reports_rl000_and_fails(self, tmp_path):
        write(tmp_path, "broken.py", "def broken(:\n    pass\n")
        report = lint_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["RL000"]
        assert report.exit_code == 1


class TestRegistry:
    def test_thirteen_rules_registered(self):
        assert sorted(RULES) == [f"RL{i:03d}" for i in range(1, 14)]

    def test_rules_have_docs_metadata(self):
        for rule_id in RULES:
            rule = get_rule(rule_id)
            assert rule.rationale and rule.example and rule.name

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rule("RL999")


class TestCli:
    def _violating_tree(self, tmp_path):
        write(
            tmp_path,
            "pkg/mod.py",
            """
            import random

            def f():
                return random.random()
            """,
        )
        return tmp_path / "pkg"

    def test_text_output_and_exit_code(self, tmp_path, capsys):
        pkg = self._violating_tree(tmp_path)
        assert main([str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "pkg/mod.py:5:12: RL001 [error]" in out
        assert "1 error(s)" in out

    def test_json_schema_is_stable(self, tmp_path):
        pkg = self._violating_tree(tmp_path)
        out_file = tmp_path / "report.json"
        assert main([str(pkg), "--format", "json", "--output", str(out_file)]) == 1
        data = json.loads(out_file.read_text())
        assert data["schema"] == "reprolint/2"
        assert data["exit"] == 1
        assert data["files"] == 1
        assert data["counts"] == {"error": 1, "advice": 0, "suppressed": 0}
        (finding,) = data["findings"]
        assert finding == {
            "file": "pkg/mod.py",
            "line": 5,
            "col": 12,
            "rule": "RL001",
            "severity": "error",
            "message": finding["message"],
        }
        assert "process-global RNG" in finding["message"]

    def test_json_schema_without_cache_omits_cache_key(self, tmp_path):
        pkg = self._violating_tree(tmp_path)
        out_file = tmp_path / "report.json"
        assert main([str(pkg), "--format", "json", "--output", str(out_file)]) == 1
        data = json.loads(out_file.read_text())
        assert data["schema"] == "reprolint/2"
        assert "cache" not in data

    @pytest.mark.parametrize(
        "flag",
        [["--no-cache"], ["--cache-path", "c.json"], ["--changed-only"]],
        ids=["no-cache", "cache-path", "changed-only"],
    )
    def test_cache_flags_are_unknown_arguments(self, tmp_path, capsys, flag):
        pkg = self._violating_tree(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([str(pkg), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_lint_leaves_the_tree_untouched(self, tmp_path):
        pkg = self._violating_tree(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main([str(pkg)]) == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_findings_sorted_for_stable_diffs(self, tmp_path):
        write(tmp_path, "pkg/b.py", "import random\nX = random.random()\n")
        write(tmp_path, "pkg/a.py", "import random\nY = random.random()\n")
        report = lint_paths([str(tmp_path / "pkg")])
        assert [f.path for f in report.findings] == ["pkg/a.py", "pkg/b.py"]

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        pkg = self._violating_tree(tmp_path)
        assert main([str(pkg), "--select", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_no_advice_omits_advice_findings(self, tmp_path, capsys):
        write(
            tmp_path,
            "core/multireplay.py",
            """
            def f(graph, window):
                for it in window:
                    graph.add_edge(it.src, it.dst)
            """,
        )
        assert main([str(tmp_path / "core"), "--no-advice"]) == 0
        out = capsys.readouterr().out
        assert "RL010" not in out
        assert main([str(tmp_path / "core")]) == 0
        assert "RL010" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_module_entry_point(self, tmp_path):
        pkg = self._violating_tree(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(pkg)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 1
        assert "RL001" in proc.stdout
