"""Tests of the XFT model boundary (Definitions 2-3, Table 1).

Three regimes, all driven against the real protocol:

* **Outside anarchy, no non-crash faults**: any number of crashes and
  partitions -- consistency always holds (the CFT column of Table 1).
* **Outside anarchy, with a non-crash fault**: one Byzantine replica but a
  correct-and-synchronous majority -- consistency still holds.
* **Anarchy is the actual boundary**: with a data-loss-faulty replica AND
  enough crash faults (tnc + tc > t), the paper's Section 4.4 scenario can
  violate consistency -- which the safety checker must classify as
  admissible (anarchy was observed), not as a protocol bug.
"""

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.faults.adversary import DataLossAdversary
from repro.faults.checker import SafetyChecker
from repro.protocols.registry import build_cluster
from repro.smr.app import KVStore
from repro.workloads.clients import ClosedLoopDriver
from tests.conftest import FAST_TIMEOUTS


def build(seed=0, use_fd=False, num_clients=2):
    config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                           use_fault_detection=use_fd, **FAST_TIMEOUTS)
    return build_cluster(config, num_clients=num_clients,
                         app_factory=KVStore, seed=seed)


def call(runtime, client, op, timeout_ms=4_000.0):
    done = []
    client.on_result = done.append
    client.propose(op, size_bytes=32)
    runtime.sim.run(until=runtime.sim.now + timeout_ms)
    return done[0] if done else None


class TestOutsideAnarchyWithByzantineReplica:
    def test_one_byzantine_replica_majority_healthy(self):
        """tnc = 1, tc = tp = 0: sum = 1 <= t, so NOT anarchy; XPaxos must
        preserve consistency even though the primary lies in view changes."""
        runtime = build(seed=3)
        checker = SafetyChecker(runtime, non_crash_faulty=[0])
        runtime.replica(0).byzantine = DataLossAdversary(keep_upto=0)
        client = runtime.clients[0]

        assert call(runtime, client, ("put", "k", "v1")) is None
        # Force a view change with everyone up: outside anarchy.
        assert not checker.in_anarchy()
        runtime.replica(1).suspect_view(0)
        runtime.sim.run(until=runtime.sim.now + 3_000.0)

        # The committed write survives despite the primary's data loss:
        # the correct follower's commit log carried it into the new view.
        result = call(runtime, runtime.clients[1], ("get", "k"))
        assert result == "v1"
        checker.assert_safe()

    def test_fd_catches_the_fault_before_anarchy_can_form(self):
        """The FD rationale (Section 4.4): the dangerous fault is detected
        at the first view change, i.e. before it coincides with enough
        crash/network faults."""
        runtime = build(seed=4, use_fd=True)
        runtime.replica(0).byzantine = DataLossAdversary(keep_upto=0)
        client = runtime.clients[0]
        assert call(runtime, client, ("put", "k", "v1")) is None
        runtime.replica(1).suspect_view(0)
        runtime.sim.run(until=runtime.sim.now + 3_000.0)
        assert any(0 in runtime.replica(i).detected_faulty
                   for i in (1, 2))


class TestAnarchyBoundaryIsTight:
    def test_data_loss_plus_crash_is_anarchy(self):
        """tnc = 1 and tc = 1: tnc + tc + tp = 2 > t = 1 -> anarchy.
        The checker classifies this correctly."""
        runtime = build(seed=5)
        checker = SafetyChecker(runtime, non_crash_faulty=[0])
        runtime.replica(1).crash()
        assert checker.observe()  # anarchy
        runtime.replica(1).recover()
        assert not checker.observe()

    def test_consistency_can_break_in_anarchy(self):
        """The paper's data-loss scenario: requests committed by the
        synchronous group (s0, s1); s0 is non-crash-faulty and loses its
        log; s1 crashes; the view change to (s0, s2) can then miss the
        committed requests -- admissible because the system was in
        anarchy.  The SafetyChecker must NOT flag this as a bug."""
        runtime = build(seed=6)
        checker = SafetyChecker(runtime, non_crash_faulty=[0])
        adversary = DataLossAdversary(keep_upto=0)
        client = runtime.clients[0]

        # Commit a write through (s0, s1) while s2 learns nothing (cut the
        # lazy-replication path so only s0 and s1 hold the request).
        runtime.network.partitions.block_pair("r1", "r2")
        runtime.network.partitions.block_pair("r0", "r2")
        assert call(runtime, client, ("put", "k", "v1")) is None

        # Now: s0 turns Byzantine (data loss), s1 crashes -> anarchy.
        runtime.replica(0).byzantine = adversary
        runtime.replica(1).crash()
        checker.observe()
        assert checker.anarchy_observed
        runtime.network.partitions.heal_all()

        # View change: the only surviving evidence of the write was s1's
        # commit log (crashed) and s0's (maliciously dropped).
        runtime.replica(0).suspect_view(0)
        runtime.sim.run(until=runtime.sim.now + 4_000.0)

        # The write may be gone -- in anarchy that is the model's stated
        # limit, so assert_safe() must tolerate whatever happened.
        checker.assert_safe()

    def test_crashes_and_partitions_alone_never_break_safety(self):
        """tnc = 0: no amount of benign chaos violates consistency
        (Table 1's CFT-equivalent column for XFT)."""
        runtime = build(seed=7, num_clients=3)
        checker = SafetyChecker(runtime)
        driver = ClosedLoopDriver(
            runtime, WorkloadConfig(num_clients=3, request_size=32,
                                    duration_ms=10_000.0,
                                    warmup_ms=100.0),
            op_factory=lambda cid, seq: ("put", f"k{cid}", seq))
        sim = runtime.sim
        sim.call_at(1_000.0, runtime.replica(0).crash)
        sim.call_at(2_000.0, runtime.replica(0).recover)
        sim.call_at(3_000.0, lambda: runtime.network.partitions.block_pair(
            "r0", "r2"))
        sim.call_at(4_000.0, runtime.replica(1).crash)
        sim.call_at(5_500.0, runtime.replica(1).recover)
        sim.call_at(6_000.0, runtime.network.partitions.heal_all)
        driver.run()
        assert not checker.anarchy_observed
        checker.assert_safe()
        assert checker.violations() == []
