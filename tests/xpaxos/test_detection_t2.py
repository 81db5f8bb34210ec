"""Fault detection at t = 2 (the general-case FD path).

At t >= 2 every active replica maintains a prepare log, so the state-loss
obligation applies to all of them -- a different code path than the t = 1
primary-only rule.
"""

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.faults.adversary import DataLossAdversary
from repro.protocols.registry import build_cluster
from repro.workloads.clients import ClosedLoopDriver


def fd_cluster_t2(seed=21):
    config = ClusterConfig(
        t=2, protocol=ProtocolName.XPAXOS, delta_ms=50.0,
        request_retransmit_ms=300.0, view_change_timeout_ms=600.0,
        batch_timeout_ms=2.0, use_fault_detection=True)
    return build_cluster(config, num_clients=3, seed=seed)


def drive(runtime, duration_ms=8_000.0):
    driver = ClosedLoopDriver(
        runtime, WorkloadConfig(num_clients=3, request_size=64,
                                duration_ms=duration_ms, warmup_ms=100.0))
    driver.run()
    return driver


class TestT2Detection:
    def test_data_loss_primary_detected(self):
        runtime = fd_cluster_t2()
        runtime.replica(0).byzantine = DataLossAdversary(keep_upto=1)
        runtime.sim.call_at(
            2_000.0,
            lambda: runtime.replica(1).suspect_view(
                runtime.replica(1).view))
        drive(runtime)
        detectors = [r.replica_id for r in runtime.replicas
                     if 0 in r.detected_faulty]
        assert detectors, "no replica detected the faulty primary"

    def test_data_loss_follower_detected(self):
        """At t = 2 followers log prepares too, so a follower that loses
        its logs is equally convictable."""
        runtime = fd_cluster_t2(seed=22)
        runtime.replica(1).byzantine = DataLossAdversary(keep_upto=1)
        runtime.sim.call_at(
            2_000.0,
            lambda: runtime.replica(0).suspect_view(
                runtime.replica(0).view))
        drive(runtime)
        detectors = [r.replica_id for r in runtime.replicas
                     if 1 in r.detected_faulty]
        assert detectors, "no replica detected the faulty follower"

    def test_benign_t2_view_change_clean(self):
        runtime = fd_cluster_t2(seed=23)
        runtime.sim.call_at(
            2_000.0,
            lambda: runtime.replica(0).suspect_view(
                runtime.replica(0).view))
        driver = drive(runtime)
        assert driver.throughput.total > 200
        assert all(not r.detected_faulty for r in runtime.replicas)

    def test_progress_with_fd_and_crash_t2(self):
        from repro.faults.injector import FaultInjector, FaultSchedule
        from repro.faults.checker import SafetyChecker

        runtime = fd_cluster_t2(seed=24)
        FaultInjector(runtime).arm(
            FaultSchedule().crash_for(2_000.0, 1, 1_000.0))
        checker = SafetyChecker(runtime)
        driver = drive(runtime, duration_ms=10_000.0)
        checker.assert_safe()
        assert driver.throughput.total > 300
        assert all(not r.detected_faulty for r in runtime.replicas)
