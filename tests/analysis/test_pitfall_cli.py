"""Tests for the pitfall experiment and the CLI."""

import pytest

from repro.analysis.cli import main
from repro.analysis.pitfall import compute_pitfall, render_pitfall
from repro.analysis.runner import ExperimentRunner
from repro.sharding.coordinator import ShardedExecutionConfig
from tests.sharding.closure_engine import ClosureExecution


class TestPitfall:
    @pytest.fixture(scope="class")
    def rows(self, small_runner):
        return compute_pitfall(small_runner, k=4, max_interactions=6_000)

    def test_has_baseline_and_methods(self, rows):
        methods = [r.method for r in rows]
        assert methods[0] == "single-shard"
        assert "metis" in methods and "random" in methods

    def test_speedups_below_ideal(self, rows):
        """The pitfall: k shards never deliver k-fold throughput under
        a real multi-shard workload."""
        for r in rows[1:]:
            assert r.speedup_vs_single < r.k

    def test_multi_shard_ratio_bounds(self, rows):
        for r in rows:
            assert 0.0 <= r.multi_shard_ratio <= 1.0

    def test_baseline_normalised(self, rows):
        assert rows[0].speedup_vs_single == 1.0
        assert rows[0].multi_shard_ratio == 0.0

    def test_rows_match_boxed_reference_replay(self, rows, small_runner):
        """The columnar engine over rows [len - 6000, len) reproduces
        the closure oracle's replay of the same boxed 6000-row tail
        (non-strict, default config), for the baseline and for a
        method's final assignment."""
        cfg = ShardedExecutionConfig()
        tail = list(small_runner.log)[-6_000:]
        assert len(small_runner.log) > len(tail)  # the cap is exercised
        local = {v: 0 for it in tail for v in (it.src, it.dst)}
        base = ClosureExecution(1, local, cfg).replay(
            tail, arrival_rate=3.0 / cfg.service_time)
        metis = dict(small_runner.results_for(("metis",), (4,)).get(
            "metis", 4).assignment)
        rep = ClosureExecution(4, metis, cfg).replay(
            tail, arrival_rate=3.0 * 4 / cfg.service_time)
        by_method = {r.method: r for r in rows}
        for row, ref in ((by_method["single-shard"], base),
                         (by_method["metis"], rep)):
            assert row.throughput == ref.throughput
            assert row.multi_shard_ratio == ref.multi_shard_ratio
            assert row.p99_latency == ref.latency.p99
            assert row.utilization_imbalance == ref.utilization_imbalance

    def test_render(self, rows):
        out = render_pitfall(rows)
        assert "EXT-PITFALL" in out
        assert "speedup" in out


class TestCLI:
    def test_fig1_runs(self, capsys):
        assert main(["fig1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--scale", "tiny"]) == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--scale", "huge"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_list_methods(self, capsys):
        assert main(["--list-methods"]) == 0
        out = capsys.readouterr().out
        assert "tr-metis" in out
        assert "cut_threshold" in out       # parameters are listed
        assert "salt" in out

    def test_sweep_writes_resultset(self, capsys, tmp_path):
        from repro.experiments import ResultSet

        out_file = tmp_path / "rs.json"
        assert main([
            "sweep", "--scale", "tiny",
            "--methods", "hash,fennel?gamma=2.0",
            "--grid", "2,4",
            "--jobs", "2",
            "--out", str(out_file),
        ]) == 0
        printed = capsys.readouterr().out
        assert "sweep: 4 cells" in printed
        assert "fennel?gamma=2.0" in printed
        rs = ResultSet.loads(out_file.read_text(encoding="utf-8"))
        assert len(rs) == 4
        assert rs.get("fennel?gamma=2.0", 4).total_moves == 0

    def test_sweep_resumes_from_store(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        args = ["sweep", "--scale", "tiny", "--methods", "hash",
                "--grid", "2", "--store", store_dir]
        assert main(args) == 0
        capsys.readouterr()
        # second invocation loads from the store (separate process in
        # real use; here: a fresh runner with an empty memo)
        assert main(args) == 0
        assert "sweep: 1 cells" in capsys.readouterr().out

    def test_sweep_reports_declined_cells(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        args = ["sweep", "--scale", "tiny", "--methods", "hash",
                "--grid", "2", "--store", str(store_dir)]
        assert main(args) == 0
        assert "declined" not in capsys.readouterr().out
        (cell_file,) = store_dir.glob("*/*.json")
        cell_file.write_text("[]", encoding="utf-8")
        assert main(args) == 0
        assert "[store declined and recomputed: corrupt=1]" in capsys.readouterr().out
