"""The linter's own acceptance gate: this repository lints clean.

CI runs ``python -m repro.lint src tests benchmarks examples`` before
the test matrix; this test keeps that invariant enforceable locally
(``pytest tests/lint``) and pins down *what* clean means: zero
error-severity findings — advice (RL010 batch-kernel markers) is
allowed to accumulate until the ROADMAP optimisations land.
"""

from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO = Path(__file__).resolve().parents[2]
LINT_PATHS = [REPO / "src", REPO / "tests", REPO / "benchmarks", REPO / "examples"]


@pytest.fixture(scope="module")
def report():
    """One lint of the whole tree, shared by both tests."""
    return lint_paths([str(p) for p in LINT_PATHS if p.is_dir()])


def test_repo_lints_clean(report):
    errors = [f"{f.location()}: {f.rule} {f.message}" for f in report.errors]
    assert not errors, "repository has lint errors:\n" + "\n".join(errors)
    assert report.exit_code == 0


def test_self_lint_covers_the_tree(report):
    # sanity: the run actually linted the codebase, not an empty set
    assert report.files > 100
