"""Fault detection (Section 4.4 and Algorithm 6): the predicates and the
accusations.  Where they enter the view change (Algorithm 5) is
:class:`~repro.protocols.xpaxos.view_change.ViewChanger`'s business, which
builds a :class:`FaultDetector` only when fault detection is configured.

The detector inspects the set of ``VIEW-CHANGE`` messages gathered during a
view change and flags replicas whose logs betray a fault that *would* have
violated consistency had the system been in anarchy:

* **state loss** -- a replica that was active in some earlier view ``i'``
  reports a prepare log missing an entry even though another replica of
  ``sg_{i'}`` holds a commit-log entry for that slot generated in ``i'``.
  The commit-log entry causally depends on the missing prepare entry, so its
  absence proves data loss.
* **fork-I** -- a replica reports a prepare-log entry for slot ``sn`` that
  either conflicts with a commit-log entry of the same view (different
  request) or is older than a commit proof the same replica must have known.
* **fork-II** -- a prepare-log entry generated in a *later* view ``i''``
  conflicts with a commit-log entry generated in ``i' < i''``; the entry can
  only be legitimate if view ``i''`` actually selected it, which the
  ``FinalProof`` (the t+1 ``VC-CONFIRM`` signatures of view ``i''``)
  certifies.  A missing or mismatched proof convicts the sender.

Detection is *strongly accurate* outside anarchy: a benign replica's logs
always pass these checks (Theorem 6), which the property-based test suite
exercises heavily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

from repro.common.errors import ProtocolViolation
from repro.crypto.primitives import replica_principal
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.signed import verify_signed
from repro.smr.log import CommitEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.xpaxos.replica import XPaxosReplica


def _batch_rid_digest(batch) -> Tuple:
    """Comparison key for batches: the full signed request bodies."""
    return tuple(r.body() for r in batch)


class FaultDetector:
    """Runs Algorithm 6 over a set of view-change messages."""

    def __init__(self, replica: "XPaxosReplica") -> None:
        self.replica = replica
        self.groups = replica.groups

    def detect(self, new_view: int,
               vcset: List[msg.ViewChange]) -> Set[int]:
        """Return the set of replica ids convicted by the evidence in
        ``vcset``; broadcast an accusation for each conviction."""
        faulty: Set[int] = set()
        for vc in vcset:
            for other in vcset:
                if vc.sender == other.sender:
                    continue
                kind = self._check_pair(new_view, vc, other)
                if kind is not None:
                    faulty.add(vc.sender)
                    accusation = msg.FaultAccusation(
                        kind=kind, accused=vc.sender, seqno=-1,
                        view=new_view, evidence=(vc.sender, other.sender))
                    self._broadcast(accusation)
        return faulty

    # -- accusations (Algorithm 6 lines 17-18) ---------------------------
    def _broadcast(self, accusation: msg.FaultAccusation) -> None:
        replica = self.replica
        replica.detected_faulty.add(accusation.accused)
        replica.multicast_authenticated(replica.other_replica_names(),
                                        accusation)

    def on_accusation(self, src: str, m: msg.FaultAccusation) -> None:
        """A peer convicted someone: note it and pass it on, once."""
        replica = self.replica
        if m.accused in replica.detected_faulty:
            return
        replica.detected_faulty.add(m.accused)
        replica.multicast_authenticated(
            [n for n in replica.all_replica_names()
             if n != replica.name and n != src],
            m)

    # ------------------------------------------------------------------
    def _check_pair(self, new_view: int, suspect_vc: msg.ViewChange,
                    witness_vc: msg.ViewChange) -> "str | None":
        """Check ``suspect_vc`` against the evidence in ``witness_vc``.

        Returns the accusation kind, or None if no fault is proven.
        """
        if suspect_vc.prepare_entries is None:
            # Without FD payloads there is nothing to cross-check.
            return None
        suspect = suspect_vc.sender
        prepare_by_sn = dict(suspect_vc.prepare_entries)

        for seqno, commit_entry in witness_vc.commit_entries:
            commit_view = commit_entry.view
            # The obligation to hold a prepare-log entry for a committed
            # slot applies only to replicas that maintain a prepare log in
            # that view: with t = 1 "only the primary maintains a prepare
            # log" (Section 4.4); with t >= 2 every active replica does.
            if self.replica.config.t == 1:
                obliged = self.groups.is_primary(commit_view, suspect)
            else:
                obliged = self.groups.is_active(commit_view, suspect)
            if not obliged:
                continue
            if not self._commit_proof_valid(commit_entry):
                continue  # the witness's evidence itself is bogus
            pentry = prepare_by_sn.get(seqno)
            if pentry is None:
                if suspect_vc.prepare_view >= commit_view \
                        and seqno > self._checkpoint_floor(suspect_vc):
                    # Algorithm 6 line 3: the commit entry causally
                    # follows the suspect's prepare entry -> state loss.
                    return "state-loss"
                continue
            if pentry.view == commit_view:
                if (_batch_rid_digest(pentry.batch)
                        != _batch_rid_digest(commit_entry.batch)):
                    # Same view, different request: fork-I.
                    return "fork-i"
            elif pentry.view < commit_view:
                # The suspect prepared in an older view than a commit it
                # participated in: fork-I (Algorithm 6 line 6, i'' < i').
                return "fork-i"
            else:
                # pentry.view > commit_view: legitimate only if the later
                # view's state selection actually adopted this request --
                # certified by the FinalProof (fork-II query, lines 9-16).
                if not self._final_proof_covers(suspect_vc, pentry.view):
                    return "fork-ii"
                if (_batch_rid_digest(pentry.batch)
                        != _batch_rid_digest(commit_entry.batch)
                        and not self._selection_overrode(
                            suspect_vc, seqno, commit_view)):
                    return "fork-ii"
        return None

    # ------------------------------------------------------------------
    def _commit_proof_valid(self, entry: CommitEntry) -> bool:
        """Is the witness's commit entry backed by the signatures its
        slot must carry?  The first signature is re-derived in full: the
        view's primary over the configured path's prepare for this very
        ``(D(batch), seqno, view)``.  The rest must be by distinct
        followers of that view; at t >= 2 they are the followers' COMMIT
        votes and are re-derived too.  What a :class:`CommitEntry` cannot
        re-derive is the t = 1 ``m1``: it also covers the follower's
        reply digest, which the entry does not carry, so there only its
        signer is checked.  (An entry re-committed by a view change
        carries the new primary's signature alone.)"""
        if not entry.proof:
            return False
        replica = self.replica
        fast = replica.config.t == 1
        ordering = msg.FastPrepare if fast else msg.Prepare
        try:
            batch_digest = msg.batch_digest_of(entry.batch)
        except ProtocolViolation:
            return False  # nothing any signature could cover
        primary_sig, *follower_sigs = entry.proof
        if not verify_signed(replica, ordering(
                entry.view, entry.seqno, entry.batch, batch_digest,
                primary_sig)):
            return False
        followers = {replica_principal(f): f
                     for f in self.groups.followers(entry.view)}
        for sig in follower_sigs:
            follower = followers.pop(sig.signer, None)
            if follower is None:
                return False  # not a follower, or one counted already
            if not fast and not verify_signed(replica, msg.CommitVote(
                    entry.view, entry.seqno, batch_digest, follower, sig)):
                return False
        return True

    @staticmethod
    def _checkpoint_floor(vc: msg.ViewChange) -> int:
        return vc.checkpoint.seqno if vc.checkpoint is not None else 0

    @staticmethod
    def _final_proof_covers(vc: msg.ViewChange, view: int) -> bool:
        """Does the sender hold the FinalProof for the view in which its
        prepare log was generated?"""
        return vc.final_proof is not None and vc.prepare_view == view

    def _selection_overrode(self, vc: msg.ViewChange, seqno: int,
                            commit_view: int) -> bool:
        """A later view may legitimately re-order a slot only if the slot's
        commit in ``commit_view`` never reached t+1 replicas -- which cannot
        happen for sg-committed slots outside anarchy.  We conservatively
        answer False (convict) unless the sender was passive in
        ``commit_view``."""
        return not self.groups.is_active(commit_view, vc.sender)
