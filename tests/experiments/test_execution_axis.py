"""The execution axis: ExecutionSpec identity, attachment, persistence.

Acceptance gates from the execution-cost redesign: cells from an
execution-enabled spec must match a plain spec cell-for-cell on every
pre-existing field (the executor only *adds* a report), the enriched
``ResultSet`` must survive JSON round-trips, store resume must
re-execute zero cells, and parallel fan-out must be bit-identical to
the sequential path.
"""

import pytest

from repro.experiments import (
    ExecutionSpec,
    ExperimentSpec,
    ResultSet,
    ResultStore,
    run_experiment,
)
from repro.graph.io import write_columnar
from repro.sharding.throughput import ThroughputReport


class TestExecutionSpecParsing:
    def test_bare_mode(self):
        assert ExecutionSpec.parse("migrate") == ExecutionSpec(mode="migrate")

    def test_field_pairs(self):
        spec = ExecutionSpec.parse("mode=migrate&arrival_rate=2000")
        assert spec.mode == "migrate"
        assert spec.arrival_rate == 2000.0

    def test_parse_passthrough(self):
        spec = ExecutionSpec(mode="migrate")
        assert ExecutionSpec.parse(spec) is spec

    def test_label_round_trips(self):
        spec = ExecutionSpec(
            mode="migrate", arrival_rate=2000, warmup_fraction=0.1,
            max_rows=5000,
        )
        assert ExecutionSpec.parse(spec.label) == spec

    def test_default_label_is_mode_only(self):
        assert ExecutionSpec().label == "mode=2pc"

    def test_parsed_and_literal_specs_share_identity(self):
        """Int-typed parses normalise to the float the literal carries."""
        parsed = ExecutionSpec.parse("mode=2pc&arrival_rate=2000")
        literal = ExecutionSpec(arrival_rate=2000.0)
        assert parsed == literal
        assert parsed.identity == literal.identity
        assert parsed.label == literal.label

    def test_identity_covers_defaulted_fields(self):
        """Unlike the label, the identity pins the *whole* cost model."""
        a = ExecutionSpec()
        b = ExecutionSpec(service_time=0.002)
        assert a.identity != b.identity
        assert a.identity.startswith("exec-2pc-")

    @pytest.mark.parametrize("text, message", [
        ("", "empty execution spec"),
        ("warp", "unknown mode"),
        ("mode=2pc&bogus=1", "unknown execution field"),
        ("mode=2pc&mode=migrate", "duplicate execution field"),
        ("mode=2pc&arrival_rate", "malformed execution parameter"),
        ("mode=2pc&arrival_rate=0", "arrival_rate must be > 0"),
        ("mode=2pc&time_scale=-1", "time_scale must be >= 0"),
        ("mode=2pc&time_scale=10&arrival_rate=5", "mutually exclusive"),
        ("mode=2pc&max_rows=0", "max_rows must be >= 1"),
        ("mode=2pc&service_time=0", "service_time must be > 0"),
    ])
    def test_rejects_bad_specs(self, text, message):
        with pytest.raises(ValueError, match=message):
            ExecutionSpec.parse(text)

    def test_dict_round_trip(self):
        spec = ExecutionSpec(mode="migrate", time_scale=100.0, max_rows=10)
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ExecutionSpec.from_dict({"mode": "2pc", "bogus": 1})


class TestExperimentSpecIntegration:
    def test_string_and_dict_coercion(self):
        by_str = ExperimentSpec(scale="tiny", execution="mode=migrate")
        by_obj = ExperimentSpec(
            scale="tiny", execution=ExecutionSpec(mode="migrate"))
        by_dict = ExperimentSpec(
            scale="tiny", execution=ExecutionSpec(mode="migrate").to_dict())
        assert by_str == by_obj == by_dict

    def test_spec_json_round_trip_carries_execution(self):
        spec = ExperimentSpec(
            scale="tiny", methods=("hash",), ks=(2,),
            execution="mode=migrate&arrival_rate=500",
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_store_id_separates_execution_from_plain(self):
        plain = ExperimentSpec(scale="tiny")
        execd = ExperimentSpec(scale="tiny", execution="2pc")
        assert plain.store_id() == plain.workload_id()
        assert execd.store_id() != plain.store_id()
        assert execd.store_id().startswith(plain.workload_id())
        assert execd.execution.identity in execd.store_id()


@pytest.fixture(scope="module")
def exec_spec():
    return ExperimentSpec(
        scale="tiny", methods=("hash", "fennel"), ks=(2, 4),
        execution="mode=migrate",
    )


@pytest.fixture(scope="module")
def exec_rs(exec_spec, tiny_workload):
    return run_experiment(exec_spec, workload=tiny_workload)


class TestExecutionEnabledRuns:
    def test_every_cell_carries_a_report(self, exec_spec, exec_rs):
        for key in exec_spec.cells():
            rep = exec_rs.cell(key).execution
            assert isinstance(rep, ThroughputReport)
            assert rep.throughput > 0
            assert rep.completed > 0

    def test_preexisting_fields_match_plain_spec(self, exec_spec, exec_rs,
                                                 tiny_workload):
        """The executor only *adds* — the partition replay is untouched."""
        plain = run_experiment(
            ExperimentSpec(scale="tiny", methods=exec_spec.methods,
                           ks=exec_spec.ks),
            workload=tiny_workload,
        )
        for key in exec_spec.cells():
            a, b = plain.cell(key), exec_rs.cell(key)
            assert a.series == b.series
            assert a.events == b.events
            assert a.assignment == b.assignment
            assert a.shard_weights == b.shard_weights
            assert a.total_moves == b.total_moves
            assert a.execution is None and b.execution is not None

    def test_resultset_json_round_trip(self, exec_rs):
        assert ResultSet.loads(exec_rs.dumps()) == exec_rs

    def test_parallel_identical_to_sequential(self, exec_spec, exec_rs,
                                              tiny_workload):
        par = run_experiment(exec_spec, jobs=2, workload=tiny_workload)
        assert par == exec_rs

    def test_resume_executes_zero_cells(self, exec_spec, exec_rs,
                                        tiny_workload, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "results")
        first = run_experiment(exec_spec, workload=tiny_workload, store=store)
        assert first == exec_rs

        import repro.core.multireplay as multireplay
        import repro.experiments.execution as execution
        import repro.experiments.parallel as parallel

        def boom(*args, **kwargs):
            raise AssertionError("resumed run re-executed a cell")

        monkeypatch.setattr(multireplay, "MultiReplayEngine", boom)
        monkeypatch.setattr(parallel, "run_chunks_parallel", boom)
        monkeypatch.setattr(execution, "execute_assignment", boom)

        outcomes = []
        second = run_experiment(
            exec_spec, workload=tiny_workload, store=store,
            progress=lambda key, outcome: outcomes.append(outcome),
        )
        assert second == first
        assert second.dumps() == first.dumps()
        assert outcomes == ["loaded"] * len(exec_spec.cells())

    def test_store_keeps_plain_and_execution_cells_apart(
            self, exec_spec, tiny_workload, tmp_path):
        store = ResultStore(tmp_path / "results")
        plain_spec = ExperimentSpec(
            scale="tiny", methods=exec_spec.methods, ks=exec_spec.ks)
        run_experiment(plain_spec, workload=tiny_workload, store=store)
        # the plain run must not satisfy the execution-enabled resume
        for key in exec_spec.cells():
            assert store.load(exec_spec, key) is None

    def test_trace_backed_sweep_matches_synthetic(self, exec_spec, exec_rs,
                                                  tiny_workload, tmp_path):
        """A v3 trace export of the same log yields the same reports
        (and the same pre-existing metrics) through the columnar path."""
        trace = tmp_path / "tiny.rct"
        write_columnar(tiny_workload.builder.log, trace, version=3)
        tr_spec = ExperimentSpec(
            methods=exec_spec.methods, ks=exec_spec.ks, source=str(trace),
            execution=exec_spec.execution,
        )
        rt = run_experiment(tr_spec, jobs=2)
        assert ResultSet.loads(rt.dumps()) == rt
        for key in tr_spec.cells():
            assert rt.cell(key).execution == exec_rs.cell(key).execution
