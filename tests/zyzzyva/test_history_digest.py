"""Zyzzyva's rolling history digest: verified in the common case and
across view changes (the ROADMAP follow-up from the baseline view-change
work -- previously the ORDER-REQ carried a history digest nobody checked).
"""

import pytest

from repro.common.config import ProtocolName
from repro.crypto.primitives import digest_of
from repro.faults.injector import FaultSchedule
from repro.protocols.zyzzyva.replica import OrderReq
from tests.conftest import make_harness


@pytest.fixture
def harness():
    return make_harness(ProtocolName.ZYZZYVA, t=1)


class TestCommonCase:
    def test_replicas_agree_and_verify(self, harness):
        driver = harness.drive(duration_ms=2_000.0)
        assert driver.throughput.total > 100
        replicas = harness.replicas
        assert all(r.history_divergences == 0 for r in replicas)
        assert all(r._history_anchored for r in replicas)
        # Followers that executed as far as the primary hold its digest.
        primary = replicas[0]
        for follower in replicas[1:]:
            if follower._history_covered == primary._history_covered:
                assert follower._history == primary._history

    def test_followers_actually_check_claims(self, harness):
        """The verification is live: every executed slot consumed a
        claim recorded from the primary's ORDER-REQ."""
        harness.drive(duration_ms=1_000.0)
        follower = harness.replica(1)
        assert follower._history_covered > 0
        # All consumed; nothing left dangling below the covered horizon.
        assert all(sn > follower._history_covered
                   for sn in follower._claimed_history)


class TestDivergenceDetection:
    def test_tampered_history_claim_flags_divergence(self, harness):
        harness.drive(duration_ms=500.0)
        primary, follower = harness.replica(0), harness.replica(1)
        seqno = follower.ex + 1
        batch = primary.commit_log.get(primary.ex).batch
        digest = digest_of(tuple(r.body() for r in batch))
        lying = OrderReq(follower.view, seqno, batch, digest,
                         digest_of(("not", "the", "history")))
        assert follower.history_divergences == 0
        follower.on_message("r0", lying)
        assert follower.history_divergences == 1
        # Divergence starts the failure-handling machinery: the follower
        # asks the primary for a sync and arms its election timer.
        assert follower._election_timer.armed
        # Checks are suspended until a NEW-VIEW re-anchors the digest.
        assert not follower._history_anchored

    def test_honest_claim_keeps_anchor(self, harness):
        harness.drive(duration_ms=500.0)
        primary, follower = harness.replica(0), harness.replica(1)
        seqno = follower.ex + 1
        batch = primary.commit_log.get(primary.ex).batch
        digest = digest_of(tuple(r.body() for r in batch))
        honest = OrderReq(follower.view, seqno, batch, digest,
                          digest_of((follower._history, digest)))
        follower.on_message("r0", honest)
        assert follower.history_divergences == 0
        assert follower._history_anchored


class TestAcrossViewChanges:
    def test_failover_reanchors_and_keeps_verifying(self, harness):
        """Crash the primary: the new view must re-anchor every replica's
        digest from the NEW-VIEW entries and keep the checks green while
        ordering resumes under the new primary."""
        harness.arm(FaultSchedule().crash_for(1_000.0, 0, 800.0))
        driver = harness.drive(duration_ms=4_000.0)
        assert driver.throughput.total > 100
        replicas = harness.replicas
        assert any(r.view_changes_completed > 0 for r in replicas)
        assert all(r.history_divergences == 0 for r in replicas)
        # The surviving replicas went through at least one re-anchor and
        # are verifying again in the new view.
        new_leader = max(replicas, key=lambda r: r.view).leader_id
        for replica in replicas:
            if replica.replica_id in (0, new_leader):
                continue
            if replica._history_anchored:
                assert replica._history_covered > 0
        harness.checker.assert_safe()

    def test_anchor_is_deterministic_across_replicas(self, harness):
        harness.arm(FaultSchedule().suspect(800.0, 1))
        harness.drive(duration_ms=3_000.0)
        replicas = [r for r in harness.replicas if r._history_anchored]
        by_covered = {}
        for replica in replicas:
            by_covered.setdefault(replica._history_covered,
                                  set()).add(replica._history)
        # Replicas covering the same horizon computed the same digest.
        assert all(len(digests) == 1 for digests in by_covered.values())
