"""Tests for the XPaxos view change (Section 4.3, Algorithm 3)."""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.workloads.clients import ClosedLoopDriver


def run_with_schedule(runtime, schedule, duration_ms=8_000.0):
    workload = WorkloadConfig(num_clients=len(runtime.clients),
                              request_size=64,
                              duration_ms=duration_ms, warmup_ms=100.0)
    driver = ClosedLoopDriver(runtime, workload)
    FaultInjector(runtime).arm(schedule)
    checker = SafetyChecker(runtime)
    driver.run()
    return driver, checker


class TestFollowerCrash:
    def test_progress_resumes_after_view_change(self, xpaxos_t1):
        schedule = FaultSchedule().crash_for(1_000.0, 1, 1_000.0)
        driver, checker = run_with_schedule(xpaxos_t1, schedule)
        checker.assert_safe()
        assert driver.throughput.total > 500
        assert all(r.view > 0 for r in xpaxos_t1.replicas)

    def test_requests_issued_before_crash_eventually_commit(self,
                                                            xpaxos_t1):
        schedule = FaultSchedule().crash_for(1_000.0, 1, 1_000.0)
        driver, checker = run_with_schedule(xpaxos_t1, schedule)
        # Every client should be cycling again by the end of the run.
        for client in xpaxos_t1.clients:
            assert client.completions

    def test_views_converge(self, xpaxos_t1):
        schedule = FaultSchedule().crash_for(1_000.0, 1, 1_000.0)
        run_with_schedule(xpaxos_t1, schedule)
        views = {r.view for r in xpaxos_t1.replicas}
        assert len(views) == 1


class TestPrimaryCrash:
    def test_progress_resumes(self, xpaxos_t1):
        schedule = FaultSchedule().crash_for(1_000.0, 0, 1_000.0)
        driver, checker = run_with_schedule(xpaxos_t1, schedule)
        checker.assert_safe()
        assert driver.throughput.total > 500

    def test_new_view_excludes_crashed_primary_while_down(self, xpaxos_t1):
        schedule = FaultSchedule().crash(1_000.0, 0)  # crash forever
        driver, checker = run_with_schedule(xpaxos_t1, schedule,
                                            duration_ms=6_000.0)
        checker.assert_safe()
        live = [xpaxos_t1.replica(1), xpaxos_t1.replica(2)]
        view = live[0].view
        group = live[0].groups.group(view)
        assert 0 not in group
        assert driver.throughput.total > 200


class TestPassiveCrash:
    def test_no_view_change_needed(self, xpaxos_t1):
        """A view is not changed unless there is a fault within the
        synchronous group (Section 4.1)."""
        schedule = FaultSchedule().crash_for(1_000.0, 2, 2_000.0)
        driver, checker = run_with_schedule(xpaxos_t1, schedule,
                                            duration_ms=5_000.0)
        checker.assert_safe()
        assert all(r.view == 0 for r in xpaxos_t1.replicas)
        assert driver.throughput.total > 500


class TestPartitionTriggersViewChange:
    def test_partitioned_synchronous_group_rotates(self, xpaxos_t1):
        schedule = (FaultSchedule()
                    .partition(1_000.0, "r0", "r1")
                    .heal(3_000.0, "r0", "r1"))
        driver, checker = run_with_schedule(xpaxos_t1, schedule)
        checker.assert_safe()
        assert all(r.view > 0 for r in xpaxos_t1.replicas)
        assert driver.throughput.total > 500


class TestT2ViewChange:
    def test_follower_crash_t2(self, xpaxos_t2):
        schedule = FaultSchedule().crash_for(1_000.0, 1, 1_000.0)
        driver, checker = run_with_schedule(xpaxos_t2, schedule)
        checker.assert_safe()
        assert driver.throughput.total > 300

    def test_two_simultaneous_crashes_t2(self, xpaxos_t2):
        """t = 2 must survive two crash faults."""
        schedule = (FaultSchedule()
                    .crash_for(1_000.0, 0, 2_000.0)
                    .crash_for(1_000.0, 1, 2_000.0))
        driver, checker = run_with_schedule(xpaxos_t2, schedule,
                                            duration_ms=10_000.0)
        checker.assert_safe()
        assert driver.throughput.total > 200


class TestStateCarriesAcrossViews:
    def test_committed_state_survives_view_change(self):
        """Requests committed in view i must be visible after the change
        to view i+1 (Lemma 1 in action)."""
        from repro.smr.app import KVStore
        from repro.protocols.registry import build_cluster
        from repro.common.config import ClusterConfig

        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                               delta_ms=50.0, request_retransmit_ms=200.0,
                               view_change_timeout_ms=400.0,
                               batch_timeout_ms=2.0)
        runtime = build_cluster(config, num_clients=1,
                                app_factory=KVStore, seed=7)
        client = runtime.clients[0]
        results = []
        client.on_result = results.append

        client.propose(("put", "key", "v1"), size_bytes=32)
        runtime.sim.run(until=500.0)
        assert results == [None]

        # Force a view change by crashing the follower briefly.
        runtime.replica(1).crash()
        runtime.sim.call_at(1_500.0, runtime.replica(1).recover)
        runtime.sim.run(until=4_000.0)

        client.propose(("get", "key"), size_bytes=32)
        runtime.sim.run(until=8_000.0)
        assert results[-1] == "v1"


class TestViewChangeMechanics:
    def test_view_change_count_is_bounded(self, xpaxos_t1):
        """One crash must not cause unbounded view churn."""
        schedule = FaultSchedule().crash_for(1_000.0, 1, 500.0)
        run_with_schedule(xpaxos_t1, schedule)
        assert max(r.view for r in xpaxos_t1.replicas) <= 6

    def test_suspect_from_passive_replica_ignored(self, xpaxos_t1):
        """Only active replicas of a view may initiate its view change
        (Section 4.3.2)."""
        from repro.protocols.xpaxos import messages as msg

        passive = xpaxos_t1.replica(2)
        primary = xpaxos_t1.replica(0)
        primary.on_message("r2", msg.Suspect.signed(passive.sign, view=0,
                                                    sender=2))
        xpaxos_t1.sim.run(until=500.0)
        assert primary.view == 0

    def test_forged_suspect_ignored(self, xpaxos_t1):
        from repro.protocols.xpaxos import messages as msg

        primary = xpaxos_t1.replica(0)
        forged = xpaxos_t1.keystore.forge_attempt(
            "r2", "r1", msg.Suspect.payload_of(view=0, sender=1))
        primary.on_message("r2", msg.Suspect(0, 1, forged))
        xpaxos_t1.sim.run(until=500.0)
        assert primary.view == 0

    def test_valid_suspect_advances_view(self, xpaxos_t1):
        from repro.protocols.xpaxos import messages as msg

        follower = xpaxos_t1.replica(1)
        primary = xpaxos_t1.replica(0)
        primary.on_message("r1", msg.Suspect.signed(follower.sign, view=0,
                                                    sender=1))
        xpaxos_t1.sim.run(until=2_000.0)
        assert primary.view >= 1
