"""Tests for the liveness checker."""

import pytest

from repro.common.config import ProtocolName
from repro.faults.liveness import LivenessChecker, default_eligible
from repro.faults.injector import FaultSchedule
from tests.conftest import make_harness


class TestEligibility:
    def test_healthy_cluster_is_eligible(self):
        harness = make_harness()
        assert default_eligible(harness.runtime)

    def test_crash_suspends_eligibility(self):
        harness = make_harness()
        harness.replica(1).crash()
        assert not default_eligible(harness.runtime)
        harness.replica(1).recover()
        assert default_eligible(harness.runtime)

    def test_partition_suspends_eligibility(self):
        harness = make_harness()
        harness.runtime.network.partitions.block_pair("r0", "r1")
        assert not default_eligible(harness.runtime)


class TestWatch:
    def test_healthy_run_has_no_violations(self):
        harness = make_harness()
        checker = LivenessChecker(harness.runtime, bound_ms=1_000.0)
        checker.watch(3_000.0)
        harness.drive(duration_ms=3_000.0)
        checker.assert_live()

    def test_idle_cluster_without_clients_violates(self):
        """A healthy cluster whose commits stop is exactly what the
        checker exists to catch."""
        harness = make_harness()
        checker = LivenessChecker(harness.runtime, bound_ms=500.0)
        checker.watch(3_000.0)
        # Nobody drives the clients: no commits ever happen.
        harness.runtime.sim.run(until=3_000.0)
        assert checker.violations
        first = checker.violations[0]
        assert first.at_ms - first.stalled_since_ms > 500.0
        with pytest.raises(AssertionError):
            checker.assert_live()

    def test_stall_during_fault_window_is_excused(self):
        """Blackouts caused by injected faults never count: the clock
        starts only when the system is healthy again."""
        harness = make_harness(ProtocolName.PAXOS)
        harness.arm(FaultSchedule()
                    .crash_for(1_000.0, 1, 1_500.0)
                    .crash_for(1_000.0, 2, 1_500.0))
        checker = LivenessChecker(harness.runtime, bound_ms=1_200.0)
        checker.watch(6_000.0)
        harness.drive(duration_ms=6_000.0)
        checker.assert_live()

    def test_violation_reported_once_per_stall(self):
        harness = make_harness()
        checker = LivenessChecker(harness.runtime, bound_ms=300.0)
        checker.watch(5_000.0)
        harness.runtime.sim.run(until=5_000.0)
        assert len(checker.violations) == 1

    def test_one_live_event_at_a_time(self):
        harness = make_harness()
        checker = LivenessChecker(harness.runtime, bound_ms=1_000.0,
                                  period_ms=10.0)
        before = harness.sim.pending
        checker.watch(10_000_000.0)
        assert harness.sim.pending == before + 1

    def test_rejects_bad_parameters(self):
        harness = make_harness()
        with pytest.raises(ValueError):
            LivenessChecker(harness.runtime, bound_ms=0.0)
        with pytest.raises(ValueError):
            LivenessChecker(harness.runtime, bound_ms=10.0, period_ms=0.0)

    def test_ineligible_cluster_is_never_flagged(self):
        """The idle run that violates above, with one replica down for
        all of it: never eligible, so progress is never required."""
        harness = make_harness()
        harness.replica(1).crash()
        checker = LivenessChecker(harness.runtime, bound_ms=300.0)
        checker.watch(3_000.0)
        harness.runtime.sim.run(until=3_000.0)
        assert checker.violations == []
