"""Shared fixtures.

Workloads are expensive to generate, so the tiny and small histories
are session-scoped and shared by every test module; tests must not
mutate them (builders/logs are treated as read-only — replays build
their own graphs).
"""

from __future__ import annotations

import random

import pytest

import repro.metis.bisect as bisect_mod
from repro.analysis.runner import ExperimentRunner
from repro.ethereum.workload import WorkloadConfig, generate_history


@pytest.fixture(scope="session")
def tiny_workload():
    """~600 transactions over 60 days (no attack window)."""
    return generate_history(WorkloadConfig.tiny(seed=42))


@pytest.fixture(scope="session")
def small_workload():
    """~6k transactions over the full 886-day timeline."""
    return generate_history(WorkloadConfig.small(seed=42))


@pytest.fixture(scope="session")
def small_runner(small_workload):
    """An ExperimentRunner pre-seeded with the shared small workload."""
    runner = ExperimentRunner(scale="small", seed=42, metric_window_hours=24.0)
    runner._workload = small_workload
    return runner


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture()
def coarsened(monkeypatch):
    """The graphs ``multilevel_bisect`` coarsens, one per bisection it
    computes: a bisection served from a graph's memo coarsens nothing."""
    graphs = []
    coarsen = bisect_mod.coarsen

    def recording(graph, *args, **kwargs):
        graphs.append(graph)
        return coarsen(graph, *args, **kwargs)

    monkeypatch.setattr(bisect_mod, "coarsen", recording)
    return graphs
