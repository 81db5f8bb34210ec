"""Tests for fault detection (Section 4.4, Algorithms 5-6, Theorems 5-6)."""

from repro.common.config import ProtocolName
from repro.faults.adversary import (
    DataLossAdversary,
    EquivocatingAdversary,
    SilentAdversary,
)
from repro.faults.injector import FaultSchedule
from tests.conftest import make_harness


def fd_harness(seed=1, use_fd=True):
    return make_harness(ProtocolName.XPAXOS, seed=seed,
                        use_fault_detection=use_fd)


def drive(harness, duration_ms=8_000.0):
    return harness.drive(duration_ms=duration_ms)


class TestStrongCompleteness:
    """Theorem 5: a fault that would cause inconsistency in anarchy is
    detected outside anarchy."""

    def test_data_loss_primary_detected(self):
        harness = fd_harness()
        harness.replica(0).byzantine = DataLossAdversary(keep_upto=1)
        harness.arm(FaultSchedule().crash_for(2_000.0, 1, 1_000.0))
        drive(harness)
        # Every replica that was up during the view change convicts the
        # primary (r1 was crashed while the accusations circulated).
        for replica_id in (0, 2):
            assert 0 in harness.replica(replica_id).detected_faulty

    def test_equivocating_primary_detected(self):
        harness = fd_harness(seed=3)
        harness.replica(0).byzantine = EquivocatingAdversary(
            report_only={1})
        harness.arm(FaultSchedule().crash_for(2_000.0, 1, 1_000.0))
        drive(harness)
        assert any(0 in r.detected_faulty for r in harness.replicas)

    def test_detection_propagates_beyond_the_detecting_replica(self):
        """Lemma 15: a fault detected by one correct replica is eventually
        detected by every correct replica that hears the accusation."""
        harness = fd_harness(seed=4)
        harness.replica(0).byzantine = DataLossAdversary(keep_upto=0)
        # Trigger the view change without crashing anyone, so every
        # replica is up to receive the broadcast accusations.
        harness.arm(FaultSchedule().suspect(2_000.0, 1))
        drive(harness)
        detections = [0 in r.detected_faulty for r in harness.replicas]
        assert all(detections), detections


class TestStrongAccuracy:
    """Theorem 6: a benign replica is never detected as faulty."""

    def test_benign_view_change_detects_nothing(self):
        harness = fd_harness(seed=5)
        harness.arm(FaultSchedule().suspect(2_000.0, 0))
        drive(harness, duration_ms=6_000.0)
        assert all(r.view >= 1 for r in harness.replicas)
        assert all(not r.detected_faulty for r in harness.replicas)

    def test_crash_recovery_is_not_a_byzantine_fault(self):
        """A replica that crashes and recovers with intact logs must not
        be accused -- crash faults are benign."""
        harness = fd_harness(seed=6)
        harness.arm(FaultSchedule().crash_for(2_000.0, 1, 1_000.0))
        drive(harness)
        assert all(not r.detected_faulty for r in harness.replicas)

    def test_repeated_view_changes_stay_clean(self):
        harness = fd_harness(seed=7)
        for at in (1_500.0, 3_000.0, 4_500.0):
            harness.sim.call_at(
                at,
                lambda: harness.replica(
                    harness.replica(0).groups.primary(
                        harness.replica(0).view)).suspect_view(
                            harness.replica(0).view))
        drive(harness, duration_ms=7_000.0)
        assert all(not r.detected_faulty for r in harness.replicas)

    def test_silent_replica_not_convicted(self):
        """Withholding the view-change message looks like a crash; FD must
        not convict (omission of the *message* is benign-compatible)."""
        harness = fd_harness(seed=8)
        harness.replica(2).byzantine = SilentAdversary()
        harness.arm(FaultSchedule().crash_for(2_000.0, 1, 1_000.0))
        drive(harness)
        # r2 (passive in view 0, no obligations) is never convicted.
        assert all(2 not in r.detected_faulty for r in harness.replicas)


class TestFdDisabled:
    def test_no_detection_without_fd(self):
        """Without FD, the same data-loss fault passes unnoticed (the
        motivation for the mechanism)."""
        harness = fd_harness(use_fd=False, seed=9)
        harness.replica(0).byzantine = DataLossAdversary(keep_upto=1)
        harness.arm(FaultSchedule().crash_for(2_000.0, 1, 1_000.0))
        drive(harness)
        assert all(not r.detected_faulty for r in harness.replicas)

    def test_progress_unaffected_by_fd(self):
        with_fd = fd_harness(seed=10, use_fd=True)
        without_fd = fd_harness(seed=10, use_fd=False)
        d1 = drive(with_fd, duration_ms=3_000.0)
        d2 = drive(without_fd, duration_ms=3_000.0)
        assert d1.throughput.total > 0.8 * d2.throughput.total


class TestVcConfirmPhase:
    def test_final_proof_recorded_after_fd_view_change(self):
        harness = fd_harness(seed=11)
        harness.arm(FaultSchedule().suspect(2_000.0, 0))
        drive(harness, duration_ms=6_000.0)
        new_view = harness.replica(0).view
        actives = harness.replica(0).groups.group(new_view)
        for rid in actives:
            replica = harness.replica(rid)
            assert new_view in replica.view_changer.final_proofs
            # t+1 confirm signatures form the proof.
            assert len(replica.view_changer.final_proofs[new_view]) == \
                harness.runtime.config.t + 1
