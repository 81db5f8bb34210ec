"""Speculative-PBFT view changes: leader faults and vote-keying.

The baselines gained a real leader-change path (VIEW-CHANGE / NEW-VIEW
with prepared-certificate carry-over over a rotating 2t + 1 active set);
these tests drive it on the shared :class:`ClusterHarness` fixtures, plus
message-reordering unit tests for the ``(seqno, digest)`` vote keying.
"""

from repro.common.config import ProtocolName
from repro.crypto.primitives import Digest
from repro.faults.injector import FaultSchedule
from repro.protocols.pbft.replica import CommitMsg, PrePrepare
from repro.smr.messages import Batch, Request
from tests.conftest import make_cluster, make_harness


def run_with_crash(crash_at, downtime, duration=8_000.0, victim=0):
    harness = make_harness(ProtocolName.PBFT)
    harness.arm(FaultSchedule().crash_for(crash_at, victim, downtime))
    driver = harness.drive(duration_ms=duration)
    return harness, driver


class TestLeaderFailover:
    def test_progress_resumes_after_primary_crash(self):
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

    def test_active_set_rotates_with_the_view(self):
        harness, _ = run_with_crash(1_000.0, 2_000.0)
        replica = next(r for r in harness.replicas if r.view >= 1)
        actives = replica.active_ids()
        assert len(actives) == 2 * harness.runtime.config.t + 1
        assert replica.view % harness.runtime.config.n in actives

    def test_committed_state_survives_failover(self):
        """Prepared/committed certificates must carry over: every client
        observes gap-free monotone timestamps across the view change."""
        harness, driver = run_with_crash(1_500.0, 2_000.0)
        harness.checker.assert_safe()
        assert harness.checker.violations() == []
        for client in harness.runtime.clients:
            timestamps = [rid[1] for _, _, rid in client.completions]
            assert timestamps == list(range(1, len(timestamps) + 1))

    def test_active_follower_crash_rotates_past_it(self):
        """Crashing active follower r1 stalls the 2t+1 quorum; the view
        must rotate to an active set that excludes it (view 1's leader is
        r1 itself, so the election escalates past it)."""
        harness, driver = run_with_crash(1_000.0, 2_500.0, victim=1)
        harness.checker.assert_safe()
        assert driver.throughput.total > 300
        top = max(r.view for r in harness.replicas)
        assert top >= 2

    def test_recovered_replica_catches_up(self):
        """A crashed primary recovering into a view where it is no longer
        leader syncs its execution horizon from its peers."""
        harness = make_harness(ProtocolName.PBFT)
        harness.arm(FaultSchedule().crash_for(1_000.0, 0, 1_000.0))
        probe = {}
        harness.sim.schedule(1_999.0, lambda: probe.update(
            stale=harness.replica(0).ex,
            top=max(r.ex for r in harness.replicas)))
        harness.drive(duration_ms=6_000.0)
        r0 = harness.replica(0)
        # While down its horizon froze; the recovery sync must lift it at
        # least to what the cluster had committed by then.
        assert r0.ex >= probe["top"] > probe["stale"]

    def test_no_elections_in_fault_free_run(self):
        harness = make_harness(ProtocolName.PBFT)
        harness.drive(duration_ms=3_000.0)
        assert all(r.elections_started == 0 for r in harness.replicas)
        assert all(r.view == 0 for r in harness.replicas)


class TestQuorumBlackout:
    def test_progress_resumes_after_majority_crash(self):
        harness = make_harness(ProtocolName.PBFT)
        harness.arm(FaultSchedule()
                    .crash_for(1_500.0, 1, 1_500.0)
                    .crash_for(1_500.0, 2, 1_500.0))
        driver = harness.drive(duration_ms=8_000.0)
        harness.checker.assert_safe()
        last_commit = max(c.completions[-1][1]
                          for c in harness.runtime.clients
                          if c.completions)
        assert last_commit > 7_000.0

    def test_recovered_replicas_join_the_campaign_they_missed(self):
        """r0 and r3 campaign through the blackout, re-sending on the
        ``view_change_timeout_ms`` cadence; r1 and r2 missed every
        VIEW-CHANGE while down.  Their recovery SyncRequest is answered
        with the campaign's VIEW-CHANGE, so the view installs as soon as
        they are back, not when the campaign next escalates (up to 400
        ms later, depending on where its cadence stands)."""
        harness = make_harness(ProtocolName.PBFT)
        harness.arm(FaultSchedule()
                    .crash_for(1_500.0, 1, 1_500.0)
                    .crash_for(1_500.0, 2, 1_500.0))
        harness.drive(duration_ms=4_000.0)
        config = harness.runtime.config
        first_after = min(done for c in harness.runtime.clients
                          for _, done, _ in c.completions if done >= 3_000.0)
        assert first_after - 3_000.0 < config.delta_ms
        assert len({r.view for r in harness.replicas}) == 1


def _request(client, timestamp):
    return Request(op=("noop",), timestamp=timestamp, client=client,
                   size_bytes=8)


class TestVoteKeying:
    """The `_record_vote` bugfix: votes pool by (seqno, digest), so
    commits that outrun the PRE-PREPARE cannot complete a *different*
    batch at the same slot."""

    def make_replica(self):
        runtime = make_cluster(ProtocolName.PBFT, num_clients=1)
        return runtime.replica(1)  # active non-leader

    def test_early_commits_with_conflicting_digest_do_not_pool(self):
        replica = self.make_replica()
        batch = Batch((_request(0, 1),))
        good = replica.batch_digest(batch)
        evil = Digest(b"\xee" * 32)
        # Three commits for a *different* digest arrive first.
        for sender in (0, 2, 3):
            replica.on_message(f"r{sender}", CommitMsg(0, 1, evil, sender))
        # The pre-prepare then fixes the real digest: the replica votes,
        # but the conflicting votes must not count toward this batch.
        replica.on_message("r0", PrePrepare(0, 1, batch, good))
        assert 1 not in replica.commit_log
        assert replica.ex == 0

    def test_early_commits_with_matching_digest_complete_on_arrival(self):
        replica = self.make_replica()
        batch = Batch((_request(0, 1),))
        good = replica.batch_digest(batch)
        # The second-phase votes outrun the pre-prepare (reordering).
        replica.on_message("r0", CommitMsg(0, 1, good, 0))
        replica.on_message("r2", CommitMsg(0, 1, good, 2))
        assert 1 not in replica.commit_log  # nothing to commit yet
        # The pre-prepare lands: replica votes and the slot completes.
        replica.on_message("r0", PrePrepare(0, 1, batch, good))
        assert replica.ex == 1
        assert replica.execution_trace == [(1, ((0, 1),))]

    def test_conflicting_then_matching_votes_commit_the_right_batch(self):
        replica = self.make_replica()
        batch = Batch((_request(0, 1),))
        good = replica.batch_digest(batch)
        evil = Digest(b"\xee" * 32)
        replica.on_message("r0", CommitMsg(0, 1, evil, 0))
        replica.on_message("r2", CommitMsg(0, 1, evil, 2))
        replica.on_message("r0", PrePrepare(0, 1, batch, good))
        assert replica.ex == 0
        # Enough votes for the real digest arrive afterwards.
        replica.on_message("r0", CommitMsg(0, 1, good, 0))
        replica.on_message("r2", CommitMsg(0, 1, good, 2))
        assert replica.ex == 1
        assert replica.execution_trace == [(1, ((0, 1),))]
