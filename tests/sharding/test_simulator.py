"""Unit tests for the closure oracle's DES kernel, shards and event queue."""

import pytest

from repro.errors import SimulationClockError
from tests.sharding.closure_engine import EventQueue, Shard, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.pop().callback()
        q.pop().callback()
        assert fired == ["a", "b"]

    def test_fifo_at_same_time(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append(1))
        q.push(1.0, lambda: fired.append(2))
        q.pop().callback()
        q.pop().callback()
        assert fired == [1, 2]


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0, 5.0]
        assert sim.now == 5.0

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def first():
            out.append(sim.now)
            sim.schedule(3.0, lambda: out.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert out == [1.0, 4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationClockError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationClockError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_advances_clock_on_idle(self):
        # an idle simulator asked to run to a horizon must report that
        # horizon, not 0.0 — elapsed/utilization figures depend on it
        sim = Simulator()
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_run_until_advances_clock_on_early_drain(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run(until=10.0)
        assert fired == [1]
        assert sim.now == 10.0

    def test_run_until_in_past_of_drained_queue_keeps_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        sim.run(until=3.0)  # horizon already passed: clock must not rewind
        assert sim.now == 5.0

    def test_run_until_in_past_with_pending_events_keeps_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run(until=3.0)  # event still pending: clock must not rewind
        assert sim.now == 4.0


class TestShard:
    def test_serial_execution(self):
        sim = Simulator()
        shard = Shard(sim)
        done = []
        shard.submit(2.0, lambda: done.append(sim.now))
        shard.submit(3.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [2.0, 5.0]  # second job waits for the first

    def test_busy_time_accumulates(self):
        sim = Simulator()
        shard = Shard(sim)
        shard.submit(2.0, lambda: None)
        shard.submit(3.0, lambda: None)
        sim.run()
        assert shard.busy_time == 5.0
        assert shard.utilization(10.0) == 0.5

    def test_negative_service_rejected(self):
        sim = Simulator()
        shard = Shard(sim)
        with pytest.raises(ValueError):
            shard.submit(-1.0, lambda: None)

    def test_idle_shard_starts_immediately(self):
        sim = Simulator()
        shard = Shard(sim)
        done = []
        shard.submit(1.5, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.5]
