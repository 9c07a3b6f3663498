"""Tests for the synthetic workload generator and its calibration."""

import hashlib

import pytest

from repro.ethereum.history import (
    ATTACK_END,
    ATTACK_START,
    FIG4_PERIODS,
    date_to_ts,
    month_label,
    ts_to_date,
)
from repro.ethereum.workload import WorkloadConfig, WorkloadGenerator, generate_history
from repro.graph.digraph import VertexKind
from repro.graph.snapshot import DAY


class TestHistoryTimeline:
    def test_date_round_trip(self):
        import datetime
        d = datetime.date(2016, 10, 18)
        assert ts_to_date(date_to_ts(d)) == d

    def test_month_label_format(self):
        import datetime
        assert month_label(date_to_ts(datetime.date(2016, 9, 1))) == "09.16"

    def test_attack_window_ordering(self):
        assert 0 < ATTACK_START < ATTACK_END

    def test_fig4_periods_contiguous(self):
        for (_, _, end), (_, start, _) in zip(FIG4_PERIODS, FIG4_PERIODS[1:]):
            assert end == start


class TestConfig:
    def test_mixture_normalised(self):
        mix = WorkloadConfig().mixture()
        assert abs(sum(mix.values()) - 1.0) < 1e-12

    def test_mixture_zero_rejected(self):
        cfg = WorkloadConfig(mix_transfer=0, mix_token=0, mix_exchange=0,
                             mix_mixer=0, mix_wallet=0, mix_deploy=0)
        with pytest.raises(ValueError):
            cfg.mixture()

    def test_scales_ordered(self):
        assert (WorkloadConfig.tiny().total_transactions
                < WorkloadConfig.small().total_transactions
                < WorkloadConfig.medium().total_transactions
                < WorkloadConfig().total_transactions)


class TestGeneration:
    def test_transaction_budget_met(self, tiny_workload):
        cfg = tiny_workload.config
        got = tiny_workload.num_transactions
        assert abs(got - cfg.total_transactions) <= cfg.total_transactions * 0.02

    def test_all_transactions_succeed(self, tiny_workload):
        failed = [r for r in tiny_workload.chain.receipts if not r.success]
        assert failed == []

    def test_chain_is_valid(self, tiny_workload):
        assert tiny_workload.chain.verify_chain()

    def test_log_is_time_ordered(self, tiny_workload):
        log = tiny_workload.builder.log
        assert all(a.timestamp <= b.timestamp for a, b in zip(log, log[1:]))

    def test_graph_has_contracts_and_accounts(self, tiny_workload):
        g = tiny_workload.graph
        assert g.count_kind(VertexKind.CONTRACT) > 0
        assert g.count_kind(VertexKind.ACCOUNT) > 0

    def test_no_contract_without_incoming_edge(self, small_workload):
        """The paper: 'in the complete graph, there is no contract
        without at least one incoming edge'."""
        g = small_workload.graph
        orphans = [
            v for v in g.vertices()
            if g.vertex_kind(v) is VertexKind.CONTRACT and g.in_degree(v) == 0
        ]
        assert orphans == []

    def test_determinism(self):
        a = generate_history(WorkloadConfig.tiny(seed=9))
        b = generate_history(WorkloadConfig.tiny(seed=9))
        assert len(a.builder.log) == len(b.builder.log)
        assert all(
            (x.src, x.dst, x.tx_id) == (y.src, y.dst, y.tx_id)
            for x, y in zip(a.builder.log, b.builder.log)
        )

    def test_seed_changes_history(self):
        a = generate_history(WorkloadConfig.tiny(seed=1))
        b = generate_history(WorkloadConfig.tiny(seed=2))
        sig_a = [(x.src, x.dst) for x in a.builder.log[:200]]
        sig_b = [(x.src, x.dst) for x in b.builder.log[:200]]
        assert sig_a != sig_b


class TestCalibration:
    """Shape assertions against the paper's Fig. 1 description."""

    def test_growth_is_superlinear_overall(self, small_workload):
        log = small_workload.builder.log
        span = log[-1].timestamp - log[0].timestamp
        first_half = sum(1 for it in log if it.timestamp < log[0].timestamp + span / 2)
        second_half = len(log) - first_half
        # the attack burst lands in the first half of the timeline, so the
        # contrast is softer than the pure boom ratio — but still strong
        assert second_half > 2 * first_half

    def test_attack_mints_throwaway_vertices(self, small_workload):
        g = small_workload.graph
        in_attack = [
            v for v in g.vertices() if ATTACK_START <= g.first_seen(v) < ATTACK_END
        ]
        # order-of-magnitude style jump: the attack month mints a large
        # share of all vertices despite being ~3% of the timeline
        assert len(in_attack) > 0.25 * g.num_vertices

    def test_attack_vertices_are_dormant(self, small_workload):
        g = small_workload.graph
        attack_vs = [
            v for v in g.vertices() if ATTACK_START <= g.first_seen(v) < ATTACK_END
        ]
        dormant = sum(1 for v in attack_vs if g.vertex_weight(v) <= 1)
        assert dormant > 0.6 * len(attack_vs)

    def test_degree_distribution_heavy_tailed(self, small_workload):
        g = small_workload.graph
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        top_share = sum(degrees[: max(1, len(degrees) // 100)]) / sum(degrees)
        assert top_share > 0.10  # top 1% of vertices carry >10% of degree

    def test_multi_interaction_transactions_exist(self, tiny_workload):
        from repro.graph.builder import group_by_transaction

        sizes = [len(b) for _, b in group_by_transaction(tiny_workload.builder.log)]
        assert max(sizes) >= 3  # mixers/spammers fan out

    def test_community_structure_is_present(self, small_workload):
        """Intra-community edges must dominate (what partitioners exploit)."""
        gen = WorkloadGenerator(WorkloadConfig.tiny(seed=3))
        result = gen.run()
        intra = inter = 0
        for it in result.builder.log:
            c1 = gen.community_of.get(it.src)
            c2 = gen.community_of.get(it.dst)
            if c1 is None or c2 is None:
                continue
            if c1 == c2:
                intra += 1
            else:
                inter += 1
        assert intra > 2 * inter


class TestLargeTierAndStreamingExport:
    def test_large_scale_config(self):
        cfg = WorkloadConfig.large(seed=9)
        assert cfg.seed == 9
        assert cfg.total_transactions >= 1_000_000   # multi-million-row tier
        assert cfg.step_hours <= 2.0

    def test_config_for_scale_knows_large(self):
        from repro.experiments.source import SCALES, config_for_scale

        assert "large" in SCALES
        assert config_for_scale("large", 5) == WorkloadConfig.large(5)

    def test_interaction_sink_sees_the_exact_builder_stream(self):
        """The sink hook must only redirect storage: same interactions,
        same order, no log left behind."""
        cfg = WorkloadConfig.tiny(seed=11)
        baseline = WorkloadGenerator(cfg).run()

        streamed = []
        gen = WorkloadGenerator(cfg, interaction_sink=streamed.append)
        gen.run()
        assert streamed == list(baseline.builder.log)
        assert len(gen.builder.log) == 0          # nothing accumulated
        assert gen.builder.graph.num_vertices == 0

    def test_export_workload_trace_matches_in_memory_write(self, tmp_path):
        from repro.ethereum.export import export_workload_trace
        from repro.graph.io import load_columnar, write_columnar

        cfg = WorkloadConfig.tiny(seed=11)
        streamed = tmp_path / "stream.rct"
        result = export_workload_trace(cfg, streamed, version=3,
                                       chunk_rows=64)
        in_memory = tmp_path / "in_memory.rct"
        log = WorkloadGenerator(cfg).run().builder.log
        write_columnar(log, in_memory, version=3)
        assert streamed.read_bytes() == in_memory.read_bytes()
        assert result.rows == len(log)
        assert result.vertices == log.num_vertices
        assert result.transactions == 600
        assert result.file_bytes == streamed.stat().st_size
        assert load_columnar(streamed).identical(log)

    def test_generated_log_is_one_columnar_log_with_pinned_export(
            self, tmp_path, monkeypatch):
        """Generation keeps one log and builds no dict graph; the log
        is the ``ColumnarLog`` the trace writers take, and both v3
        export paths of the tiny seed-42 history write pinned bytes."""
        from repro.ethereum.export import export_workload_trace
        from repro.experiments.source import config_for_scale
        from repro.graph.columnar import ColumnarLog
        from repro.graph.digraph import WeightedDiGraph
        from repro.graph.io import write_columnar

        built = []
        init = WeightedDiGraph.__init__

        def counting_init(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(WeightedDiGraph, "__init__", counting_init)
        cfg = config_for_scale("tiny", 42)
        log = generate_history(cfg).builder.log
        assert built == []
        assert isinstance(log, ColumnarLog)

        # what the benchmark set-up writes, and what `repro-trace export` writes
        written, exported = tmp_path / "written.rct", tmp_path / "exported.rct"
        write_columnar(log, written, version=3)
        export_workload_trace(cfg, exported, version=3)
        for path in (written, exported):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "e2c94b4b34eae44ae11001189fc5acca16ec1d57ed7db8270ab1bfe63407cf90")
