"""Tests for the fault injector and schedules."""

import pytest

from repro.faults.injector import FaultEvent, FaultInjector, FaultSchedule
from tests.conftest import make_cluster


class TestFaultSchedule:
    def test_crash_for_generates_pair(self):
        schedule = FaultSchedule().crash_for(100.0, 1, 50.0)
        kinds = [(e.kind, e.at_ms) for e in schedule.events]
        assert kinds == [("crash", 100.0), ("recover", 150.0)]

    def test_rolling_crashes_writes_figure9(self):
        # The paper's Figure 9, as the rolling_crashes docstring gives it.
        schedule = FaultSchedule.rolling_crashes(
            (1, 0, 2), 180_000.0, 120_000.0, 20_000.0)
        crashes = [(e.at_ms, e.replica) for e in schedule.events
                   if e.kind == "crash"]
        assert crashes == [(180_000.0, 1), (300_000.0, 0), (420_000.0, 2)]
        recoveries = [(e.at_ms, e.replica) for e in schedule.events
                      if e.kind == "recover"]
        assert recoveries == [(200_000.0, 1), (320_000.0, 0),
                              (440_000.0, 2)]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "crash")  # no replica
        with pytest.raises(ValueError):
            FaultEvent(0.0, "partition")  # no pair


class TestFaultInjector:
    def test_scheduled_crash_and_recovery(self):
        runtime = make_cluster()
        injector = FaultInjector(runtime)
        injector.arm(FaultSchedule().crash_for(100.0, 1, 100.0))
        runtime.sim.run(until=150.0)
        assert runtime.replica(1).crashed
        runtime.sim.run(until=250.0)
        assert not runtime.replica(1).crashed

    def test_partition_events(self):
        runtime = make_cluster()
        injector = FaultInjector(runtime)
        injector.arm(FaultSchedule()
                     .partition(100.0, "r0", "r1")
                     .heal(200.0, "r0", "r1"))
        runtime.sim.run(until=150.0)
        assert runtime.network.partitions.blocked("r0", "r1")
        runtime.sim.run(until=250.0)
        assert not runtime.network.partitions.blocked("r0", "r1")

    def test_injection_log(self):
        runtime = make_cluster()
        injector = FaultInjector(runtime)
        injector.arm(FaultSchedule().crash_for(100.0, 1, 100.0))
        runtime.sim.run(until=150.0)
        assert [e.kind for e in injector.injected] == ["crash"]
        runtime.sim.run(until=250.0)
        assert [e.kind for e in injector.injected] == ["crash", "recover"]
