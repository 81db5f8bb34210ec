"""The Appendix A example execution (Figure 11).

The scenario: requests r0..r2 are committed (partially) in view i; a network
fault at the follower activates a view change to i+1; a new request r3
commits in i+1; then the primary s0 suffers a non-crash (data-loss) fault
and the view changes to i+2.

* Without FD (Figure 11a): the committed requests survive into view i+2 via
  the correct replicas' commit logs -- consistency holds outside anarchy.
* With FD (Figure 11b): s0's data-loss fault is *detected* during the view
  change to i+2.
"""

import pytest

from repro.common.config import ClusterConfig, ProtocolName
from repro.faults.adversary import DataLossAdversary
from repro.protocols.registry import build_cluster
from repro.smr.app import KVStore


def scripted_cluster(use_fd):
    config = ClusterConfig(
        t=1, protocol=ProtocolName.XPAXOS, delta_ms=50.0,
        request_retransmit_ms=250.0, view_change_timeout_ms=500.0,
        batch_timeout_ms=1.0, batch_size=1,
        use_fault_detection=use_fd)
    return build_cluster(config, num_clients=4, app_factory=KVStore,
                         seed=13)


def propose_and_wait(runtime, client_index, op, until_ms):
    client = runtime.clients[client_index]
    results = []
    client.on_result = results.append
    client.propose(op, size_bytes=32)
    runtime.sim.run(until=until_ms)
    return results


class TestFigure11:
    @pytest.mark.parametrize("use_fd", [False, True])
    def test_committed_requests_survive_two_view_changes(self, use_fd):
        runtime = scripted_cluster(use_fd)
        sim = runtime.sim

        # View i: commit three requests.
        assert propose_and_wait(runtime, 0, ("put", "r0", 0), 300.0)
        assert propose_and_wait(runtime, 1, ("put", "r1", 1), 600.0)
        assert propose_and_wait(runtime, 2, ("put", "r2", 2), 900.0)

        # Network fault at the follower: view change to i+1 (group s0,s2).
        runtime.network.partitions.block_pair("r0", "r1")
        runtime.replica(0).suspect_view(0)
        sim.run(until=2_000.0)
        assert runtime.replica(0).view >= 1

        # View i+1: commit r3.
        assert propose_and_wait(runtime, 3, ("put", "r3", 3), 3_000.0)

        # Heal, then s0 becomes non-crash-faulty (data loss) and the view
        # changes to i+2 (group s1,s2).
        runtime.network.partitions.unblock_pair("r0", "r1")
        runtime.replica(0).byzantine = DataLossAdversary(keep_upto=1)
        current = runtime.replica(2).view
        runtime.replica(0).suspect_view(current)
        sim.run(until=6_000.0)
        final_view = runtime.replica(2).view
        assert final_view > current

        # Outside anarchy every committed request must survive into the
        # new view: read them all back through the new group.
        for key, expected in (("r0", 0), ("r1", 1), ("r2", 2), ("r3", 3)):
            results = propose_and_wait(
                runtime, 0, ("get", key), sim.now + 2_000.0)
            assert results, f"read of {key} did not commit"
            assert results[-1] == expected, (
                f"{key} lost across view changes")

    def test_fd_detects_s0_data_loss(self):
        runtime = scripted_cluster(use_fd=True)
        sim = runtime.sim

        assert propose_and_wait(runtime, 0, ("put", "r0", 0), 300.0)
        assert propose_and_wait(runtime, 1, ("put", "r1", 1), 600.0)
        assert propose_and_wait(runtime, 2, ("put", "r2", 2), 900.0)

        # Data-loss fault at the primary, then a view change it must
        # survive: with FD the fault is detected during the view change.
        runtime.replica(0).byzantine = DataLossAdversary(keep_upto=0)
        runtime.replica(1).suspect_view(0)
        sim.run(until=4_000.0)

        assert any(0 in runtime.replica(i).detected_faulty
                   for i in (1, 2)), "s0's data loss went undetected"

    def test_without_fd_data_loss_is_silent_but_consistent(self):
        """Figure 11a: without FD nothing is detected, yet outside anarchy
        the requests still survive via the correct replicas' logs."""
        runtime = scripted_cluster(use_fd=False)
        sim = runtime.sim

        assert propose_and_wait(runtime, 0, ("put", "r0", 0), 300.0)
        assert propose_and_wait(runtime, 1, ("put", "r1", 1), 600.0)

        runtime.replica(0).byzantine = DataLossAdversary(keep_upto=0)
        runtime.replica(1).suspect_view(0)
        sim.run(until=4_000.0)

        assert all(not r.detected_faulty for r in runtime.replicas)
        results = propose_and_wait(runtime, 2, ("get", "r1"),
                                   sim.now + 2_000.0)
        assert results and results[-1] == 1
