"""Zab epoch changes: leader faults, leader sync, early-commit buffering.

Drives the epoch-bump path (FOLLOWER-INFO / NEW-EPOCH with history
re-proposal) on the shared :class:`ClusterHarness` fixture, plus the
commit-before-proposal reordering unit tests for the `_on_commit` buffer.
"""

from repro.common.config import ProtocolName
from repro.faults.injector import FaultSchedule
from repro.protocols.zab.replica import CommitZab, Proposal
from repro.smr.messages import Batch, Request
from tests.conftest import make_cluster, make_harness


def run_with_crash(crash_at, downtime, duration=8_000.0, victim=0):
    harness = make_harness(ProtocolName.ZAB)
    harness.arm(FaultSchedule().crash_for(crash_at, victim, downtime))
    driver = harness.drive(duration_ms=duration)
    return harness, driver


class TestEpochChange:
    def test_progress_resumes_after_leader_crash(self):
        harness, driver = run_with_crash(1_000.0, 2_000.0)
        harness.checker.assert_safe()
        assert driver.throughput.total > 500
        live_views = {r.view for r in harness.replicas if not r.crashed}
        assert max(live_views) >= 1

    def test_commits_continue_after_failover_settles(self):
        harness, driver = run_with_crash(1_000.0, 2_000.0)
        last_commit = max(c.completions[-1][1]
                          for c in harness.runtime.clients
                          if c.completions)
        assert last_commit > 7_000.0, \
            f"commits stopped at t={last_commit:.0f} ms"

    def test_acked_history_survives_the_epoch_bump(self):
        """The new leader syncs from the freshest acked prefix: every
        client observes gap-free monotone timestamps across epochs."""
        harness, driver = run_with_crash(1_500.0, 2_000.0)
        harness.checker.assert_safe()
        assert harness.checker.violations() == []
        for client in harness.runtime.clients:
            timestamps = [rid[1] for _, _, rid in client.completions]
            assert timestamps == list(range(1, len(timestamps) + 1))

    def test_deposed_leader_rejoins_as_follower(self):
        harness, _ = run_with_crash(1_000.0, 1_000.0, duration=6_000.0)
        r0 = harness.replica(0)
        assert r0.view >= 1
        assert not r0.is_leader
        assert r0.committed_requests > 0

    def test_quorum_blackout_recovers(self):
        harness = make_harness(ProtocolName.ZAB)
        harness.arm(FaultSchedule()
                    .crash_for(1_500.0, 1, 1_500.0)
                    .crash_for(1_500.0, 2, 1_500.0))
        driver = harness.drive(duration_ms=8_000.0)
        harness.checker.assert_safe()
        last_commit = max(c.completions[-1][1]
                          for c in harness.runtime.clients
                          if c.completions)
        assert last_commit > 7_000.0

    def test_no_elections_in_fault_free_run(self):
        harness = make_harness(ProtocolName.ZAB)
        harness.drive(duration_ms=3_000.0)
        assert all(r.elections_started == 0 for r in harness.replicas)
        assert all(r.view == 0 for r in harness.replicas)


def _batch(client, timestamp):
    return Batch((Request(op=("noop",), timestamp=timestamp, client=client,
                          size_bytes=8),))


class TestEarlyCommitBuffering:
    """The commit-buffering bugfix: a COMMITZAB that outruns its PROPOSAL is
    buffered and delivered when the proposal lands, instead of being
    dropped (which permanently lost the zxid on that follower)."""

    def make_follower(self):
        runtime = make_cluster(ProtocolName.ZAB, num_clients=1)
        return runtime.replica(1)

    def test_commit_before_proposal_is_buffered_then_delivered(self):
        follower = self.make_follower()
        batch = _batch(0, 1)
        follower.on_message("r0", CommitZab(0, 1))
        assert follower.ex == 0  # nothing lost, nothing delivered yet
        follower.on_message("r0", Proposal(0, 1, batch))
        assert follower.ex == 1
        assert follower.execution_trace == [(1, ((0, 1),))]

    def test_in_order_delivery_still_works(self):
        follower = self.make_follower()
        follower.on_message("r0", Proposal(0, 1, _batch(0, 1)))
        assert follower.ex == 0  # acked, awaiting commit
        follower.on_message("r0", CommitZab(0, 1))
        assert follower.ex == 1

    def test_duplicate_commit_is_harmless(self):
        follower = self.make_follower()
        follower.on_message("r0", CommitZab(0, 1))
        follower.on_message("r0", Proposal(0, 1, _batch(0, 1)))
        follower.on_message("r0", CommitZab(0, 1))
        assert follower.ex == 1
        assert follower.committed_requests == 1

    def test_interleaved_reordering_across_slots(self):
        """Commit 2 arrives before proposal 2 while slot 1 flows in
        order: both slots must execute, in order."""
        follower = self.make_follower()
        follower.on_message("r0", Proposal(0, 1, _batch(0, 1)))
        follower.on_message("r0", CommitZab(0, 2))      # outran proposal 2
        follower.on_message("r0", CommitZab(0, 1))
        assert follower.ex == 1
        follower.on_message("r0", Proposal(0, 2, _batch(1, 1)))
        assert follower.ex == 2
        assert follower.execution_trace == [(1, ((0, 1),)),
                                            (2, ((1, 1),))]
