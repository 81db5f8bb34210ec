"""Component-level tests for the XPaxos fault detector (Section 4.4).

The end-to-end suite (``test_detection.py``) drives whole clusters;
these tests exercise :class:`FaultDetector` and the checkpoint PreChk
machinery directly: pairwise log cross-checks on real view-change
messages, lost/forged PreChk handling, and view-change interleavings.
"""

from repro.common.config import ProtocolName
from repro.faults.adversary import DataLossAdversary, StaleViewAdversary
from repro.faults.injector import FaultSchedule
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.detection import FaultDetector
from repro.smr.log import PrepareEntry
from tests.conftest import channel_mac, make_harness


def fd_harness(seed=21, **overrides):
    return make_harness(ProtocolName.XPAXOS, seed=seed,
                        use_fault_detection=True, **overrides)


def committed_harness(seed=21, duration_ms=2_000.0, **overrides):
    """A driven cluster with real commit/prepare logs to cross-check."""
    harness = fd_harness(seed=seed, **overrides)
    harness.drive(duration_ms=duration_ms)
    return harness


def rebuild_vc(replica, vc, commit_entries=None, prepare_entries=None,
               checkpoint="keep", final_proof="keep"):
    """A mutated copy of ``vc``, re-signed by its sender (the adversary
    owns its key: content is the fault, never the signature)."""
    commit_entries = vc.commit_entries if commit_entries is None \
        else tuple(commit_entries)
    if prepare_entries is None:
        prepare_entries = vc.prepare_entries
    elif prepare_entries != "none":
        prepare_entries = tuple(prepare_entries)
    if prepare_entries == "none":
        prepare_entries = None
    checkpoint = vc.checkpoint if checkpoint == "keep" else checkpoint
    final_proof = vc.final_proof if final_proof == "keep" else final_proof
    return vc.resigned(replica.sign, commit_entries=commit_entries,
                       prepare_entries=prepare_entries,
                       checkpoint=checkpoint, final_proof=final_proof)


class TestCheckPair:
    """Algorithm 6's pairwise evidence checks, on genuine messages."""

    def test_benign_logs_pass_both_directions(self):
        harness = committed_harness()
        primary, follower = harness.replica(0), harness.replica(1)
        vc0 = primary.view_changer.build_view_change(1)
        vc1 = follower.view_changer.build_view_change(1)
        detector = FaultDetector(follower)
        assert detector._check_pair(1, vc0, vc1) is None
        assert detector._check_pair(1, vc1, vc0) is None

    def test_truncated_prepare_log_is_state_loss(self):
        harness = committed_harness()
        primary, follower = harness.replica(0), harness.replica(1)
        vc0 = primary.view_changer.build_view_change(1)
        assert vc0.prepare_entries, "need real prepare entries"
        top = max(sn for sn, _ in vc0.prepare_entries)
        lossy = rebuild_vc(
            primary, vc0,
            prepare_entries=[(sn, e) for sn, e in vc0.prepare_entries
                             if sn < top])
        witness = follower.view_changer.build_view_change(1)
        assert any(sn == top for sn, _ in witness.commit_entries)
        detector = FaultDetector(follower)
        assert detector._check_pair(1, lossy, witness) == "state-loss"

    def test_adversary_truncation_matches_manual_one(self):
        """The DataLossAdversary's output convicts the same way."""
        harness = committed_harness(seed=22)
        primary, follower = harness.replica(0), harness.replica(1)
        primary.byzantine = DataLossAdversary(keep_upto=1)
        lossy = primary.view_changer.build_view_change(1)
        witness = follower.view_changer.build_view_change(1)
        detector = FaultDetector(follower)
        assert detector._check_pair(1, lossy, witness) == "state-loss"

    def test_wrong_batch_same_view_is_fork_i(self):
        harness = committed_harness()
        primary, follower = harness.replica(0), harness.replica(1)
        vc0 = primary.view_changer.build_view_change(1)
        entries = dict(vc0.prepare_entries)
        seqnos = sorted(entries)
        assert len(seqnos) >= 2, "need two slots to cross-wire"
        a, b = seqnos[0], seqnos[1]
        ea, eb = entries[a], entries[b]
        # Slot a now reports slot b's batch: same view, wrong request.
        entries[a] = PrepareEntry(ea.seqno, ea.view, eb.batch,
                                  ea.primary_sig)
        forked = rebuild_vc(primary, vc0,
                            prepare_entries=sorted(entries.items()))
        witness = follower.view_changer.build_view_change(1)
        detector = FaultDetector(follower)
        assert detector._check_pair(1, forked, witness) == "fork-i"

    def test_prepare_older_than_commit_is_fork_i(self):
        """Entries re-stamped to a stale view (the StaleViewAdversary)
        convict once commits exist in a newer view."""
        harness = fd_harness(seed=23)
        harness.arm(FaultSchedule().suspect(1_000.0, 1))
        harness.drive(duration_ms=4_000.0)
        view = harness.replica(2).view
        assert view >= 1
        new_primary = harness.replica(
            harness.replica(2).groups.primary(view))
        witness_replica = next(
            harness.replica(rid)
            for rid in harness.replica(2).groups.group(view)
            if rid != new_primary.replica_id)
        new_primary.byzantine = StaleViewAdversary(stale_view=0)
        stale = new_primary.view_changer.build_view_change(view + 1)
        witness = witness_replica.view_changer.build_view_change(view + 1)
        # Only meaningful if the new view actually committed something.
        assert any(e.view == view for _, e in witness.commit_entries)
        detector = FaultDetector(witness_replica)
        assert detector._check_pair(view + 1, stale, witness) == "fork-i"

    def test_later_view_prepare_without_final_proof_is_fork_ii(self):
        harness = committed_harness()
        primary, follower = harness.replica(0), harness.replica(1)
        vc0 = primary.view_changer.build_view_change(1)
        entries = dict(vc0.prepare_entries)
        sn = min(entries)
        e = entries[sn]
        # The suspect claims slot sn was (re)prepared in a future view but
        # holds no FinalProof for that view.
        entries[sn] = PrepareEntry(e.seqno, e.view + 7, e.batch,
                                   e.primary_sig)
        forked = rebuild_vc(primary, vc0,
                            prepare_entries=sorted(entries.items()),
                            final_proof=None)
        witness = follower.view_changer.build_view_change(1)
        detector = FaultDetector(follower)
        assert detector._check_pair(1, forked, witness) == "fork-ii"

    def test_witness_with_bogus_proof_is_not_credible(self):
        """A witness whose commit entries carry no valid proof cannot
        convict anyone (Algorithm 6 trusts evidence, not claims)."""
        harness = committed_harness()
        primary, follower = harness.replica(0), harness.replica(1)
        vc0 = primary.view_changer.build_view_change(1)
        top = max(sn for sn, _ in vc0.prepare_entries)
        lossy = rebuild_vc(
            primary, vc0,
            prepare_entries=[(sn, e) for sn, e in vc0.prepare_entries
                             if sn < top])
        witness = follower.view_changer.build_view_change(1)
        stripped = rebuild_vc(
            follower, witness,
            commit_entries=[
                (sn, type(e)(e.seqno, e.view, e.batch, ()))
                for sn, e in witness.commit_entries])
        detector = FaultDetector(follower)
        assert detector._check_pair(1, lossy, stripped) is None

    def test_no_prepare_log_means_nothing_to_check(self):
        """Without FD payloads (prepare_entries None) a pair check is
        vacuous -- the basis of the FD-off mode."""
        harness = committed_harness()
        primary, follower = harness.replica(0), harness.replica(1)
        vc0 = rebuild_vc(primary, primary.view_changer.build_view_change(1),
                         prepare_entries="none")
        witness = follower.view_changer.build_view_change(1)
        detector = FaultDetector(follower)
        assert detector._check_pair(1, vc0, witness) is None

    def test_follower_not_obliged_at_t1(self):
        """With t = 1 only the primary maintains a prepare log: a
        follower reporting an empty one is never state-loss."""
        harness = committed_harness()
        follower, other = harness.replica(1), harness.replica(0)
        vc1 = follower.view_changer.build_view_change(1)
        assert not vc1.prepare_entries  # followers hold no prepare log
        witness = other.view_changer.build_view_change(1)
        detector = FaultDetector(other)
        assert detector._check_pair(1, vc1, witness) is None

    def test_detect_broadcasts_and_returns_convictions(self):
        harness = committed_harness(seed=24)
        primary, follower = harness.replica(0), harness.replica(1)
        primary.byzantine = DataLossAdversary(keep_upto=1)
        lossy = primary.view_changer.build_view_change(1)
        witness = follower.view_changer.build_view_change(1)
        detector = FaultDetector(follower)
        faulty = detector.detect(1, [lossy, witness])
        assert faulty == {0}
        assert 0 in follower.detected_faulty


class TestPreChk:
    """Checkpoint agreement under lost and forged PreChk messages."""

    def drop_prechk(self, harness, receivers):
        """Receiver-side loss of every PreChk at the given replicas."""
        for replica in receivers:
            replica._handlers[msg.PreChk] = lambda src, m: None

    def test_checkpoints_form_with_healthy_prechk(self):
        harness = committed_harness(seed=25, checkpoint_period=8)
        actives = [harness.replica(0), harness.replica(1)]
        assert all(r.stable_checkpoint is not None for r in actives)

    def test_lost_prechk_blocks_checkpoints_not_commits(self):
        harness = fd_harness(seed=25, checkpoint_period=8)
        self.drop_prechk(harness, harness.replicas)
        driver = harness.drive(duration_ms=2_000.0)
        assert driver.throughput.total > 100  # commits unaffected
        assert all(r.stable_checkpoint is None for r in harness.replicas)

    def test_lost_prechk_causes_no_false_accusations(self):
        """A replica that never contributed checkpoint votes is not a
        faulty replica: the following view change must stay clean."""
        harness = fd_harness(seed=26, checkpoint_period=8)
        self.drop_prechk(harness, [harness.replica(1)])
        harness.arm(FaultSchedule().suspect(1_500.0, 1))
        harness.drive(duration_ms=4_000.0)
        assert all(not r.detected_faulty for r in harness.replicas)
        harness.checker.assert_safe()

    def test_wrong_mac_prechk_ignored(self):
        """A PRECHK whose transport MAC does not cover its body (or was
        minted for a different channel) dies at delivery, before the
        checkpoint handler ever sees it."""
        harness = committed_harness(seed=27)
        r1 = harness.replica(1)
        keystore = harness.runtime.keystore
        bad = msg.PreChk(seqno=4096, view=r1.view, state_digest=b"x" * 32,
                         sender=0)
        failures = r1.auth_failures
        # MAC over the wrong body.
        r1._on_deliver_auth("r0", bad,
                            channel_mac(keystore, "r0", "r1",
                                        ("prechk", "wrong", "body")), 64)
        # MAC minted for a different receiver's channel (replay).
        r1._on_deliver_auth("r0", bad, channel_mac(keystore, "r0", "r2", bad),
                            64)
        assert 4096 not in r1.checkpointer._prechk_votes
        assert r1.auth_failures == failures + 2
        # A replica relaying a peer's correctly MAC'd PreChk from its own
        # address cannot inject the vote either: the source check holds.
        r1._on_deliver_auth("r2", bad, channel_mac(keystore, "r2", "r1", bad),
                            64)
        assert 4096 not in r1.checkpointer._prechk_votes

    def test_wrong_digest_prechk_never_reaches_agreement(self):
        """A vote whose digest disagrees with ours counts for nothing:
        no CHKPT is signed without t+1 *matching* digests."""
        harness = committed_harness(seed=28)
        r1 = harness.replica(1)
        seqno = 4096
        own = r1.app.state_digest()
        r1.checkpointer._record_prechk(seqno, r1.replica_id, own)
        evil = msg.PreChk(seqno=seqno, view=r1.view,
                          state_digest=b"y" * 32, sender=0)
        # Correctly MAC'd for the r0 -> r1 channel: the faulty active can
        # vote a wrong digest, it just can never reach t+1 matching.
        r1._on_deliver_auth("r0", evil,
                            channel_mac(harness.runtime.keystore, "r0", "r1",
                                        evil),
                            64)
        assert r1.checkpointer._prechk_votes[seqno][0] == b"y" * 32  # vote recorded
        assert seqno not in r1.checkpointer._chkpt_sigs  # but no CHKPT signed


class TestViewChangeInterleavings:
    """Overlapping suspicions must neither wedge the cluster nor convict
    a benign replica."""

    def test_suspect_during_view_change_stays_clean(self):
        harness = fd_harness(seed=29)
        harness.arm(FaultSchedule()
                    .suspect(2_000.0, 1)
                    .suspect(2_001.0, 2))
        driver = harness.drive(duration_ms=6_000.0)
        assert all(not r.detected_faulty for r in harness.replicas)
        assert max(r.view for r in harness.replicas) >= 1
        harness.checker.assert_safe()
        last = max(c.completions[-1][1] for c in harness.runtime.clients)
        assert last > 5_000.0  # progress resumed after the churn

    def test_crash_during_view_change_stays_clean(self):
        """A replica crashing mid view change is a benign fault on top of
        a benign fault: detection must still convict nobody."""
        harness = fd_harness(seed=30)
        harness.arm(FaultSchedule()
                    .suspect(2_000.0, 1)
                    .crash_for(2_005.0, 2, 800.0))
        harness.drive(duration_ms=6_000.0)
        assert all(not r.detected_faulty for r in harness.replicas)
        harness.checker.assert_safe()

    def test_data_loss_detected_through_interleaved_view_changes(self):
        """Theorem 5 through churn: two quick suspicions while the
        primary's logs are truncated still convict the primary."""
        harness = fd_harness(seed=31)
        harness.replica(0).byzantine = DataLossAdversary(keep_upto=1)
        harness.arm(FaultSchedule()
                    .suspect(2_000.0, 1)
                    .suspect(2_400.0, 2))
        harness.drive(duration_ms=7_000.0)
        assert any(0 in r.detected_faulty for r in harness.replicas)
