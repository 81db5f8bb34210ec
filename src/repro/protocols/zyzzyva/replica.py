"""Zyzzyva replica (Figure 6b).

The paper chose Zyzzyva "because it is the fastest BFT protocol that
involves all replicas in the common case" (Section 5.1.2).  The
speculative fast path:

1. client -> primary: request;
2. primary -> all 3t other replicas: ``ORDER-REQ(sn, batch)``;
3. every replica *speculatively executes* immediately and sends a
   ``SPEC-RESPONSE`` straight to the client;
4. the client commits when all ``3t + 1`` speculative responses match.

If fewer than 3t + 1 but at least 2t + 1 match, the client assembles a
*commit certificate* from the matching responses, forwards it to the
replicas (:class:`CommitCert`), and completes -- the real protocol's
second phase, with its message bookkeeping reduced to the certificate
itself.  A replica that receives a certificate for a slot it never saw
knows the primary failed to deliver its ORDER-REQ: it fetches the gap and
starts suspecting the primary.

View change: replicas suspecting the primary broadcast ``VIEW-CHANGE``
messages carrying their speculative histories (their commit logs -- in
Zyzzyva speculative execution *is* commitment, to be rolled back only
across view changes, which the certificate forwarding makes unnecessary
for crash faults); the new primary merges the longest certified history,
announces ``NEW-VIEW``, and resumes ordering above it.

History digest: every ``ORDER-REQ`` carries the primary's rolling history
``h_n = D(h_{n-1}, d_n)``.  Replicas recompute it in *execution* order and
check it against the primary's claim as each slot executes; a mismatch
(``history_divergences``) triggers a sync from the primary and starts the
election timer.  Across view changes the rolling digest is re-anchored
deterministically from the ``NEW-VIEW``'s merged entries, so the check
stays live in every view -- the primary of view ``v+1`` cannot quietly
present a history that contradicts what the quorum handed it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, List, Tuple

from repro.crypto.primitives import Digest, digest_of
from repro.protocols.base import register_modeled
from repro.protocols.campaign import CampaignReplica, NewView
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch


@register_modeled
class OrderReq:
    """Primary -> all replicas: speculative ordering of a batch."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest
    history_digest: Digest

    wire_bytes = property(attrgetter("batch.size_bytes"))


@register_modeled
class CommitCert:
    """Client -> all replicas: 2t + 1 matching speculative responses for
    one slot (the fallback path's commit proof)."""

    view: int
    seqno: int
    result_digest: Digest
    client: int
    timestamp: int
    repliers: Tuple[int, ...]

    wire_bytes = 96


@register_modeled
class ViewChange:
    """Suspecting replica -> all: its speculative history for ``view``."""

    view: int
    sender: int
    executed_upto: int
    entries: Tuple[Tuple[int, Batch], ...]

    header_bytes = 128
    wire_bytes = property(lambda m: m.header_bytes + sum(
        b.size_bytes + 16 for _, b in m.entries))


class ZyzzyvaReplica(CampaignReplica):
    """One replica of the Zyzzyva deployment (n = 3t + 1, all active)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._history = Digest(b"\x00" * 32)
        #: Highest seqno the rolling history digest covers.
        self._history_covered = 0
        #: False after a view change or state-transfer jump, until the
        #: next NEW-VIEW re-anchors the digest (checks are suspended).
        self._history_anchored = True
        #: seqno -> history digest the primary's ORDER-REQ claimed.
        self._claimed_history: Dict[int, Digest] = {}
        #: seqno -> batch digest from the ORDER-REQ (avoids recomputing).
        self._order_digests: Dict[int, Digest] = {}
        #: Primary history claims that failed verification.
        self.history_divergences = 0
        self.certs_received = 0
        self._handlers.update({
            OrderReq: self._on_order_req,
            CommitCert: self._on_commit_cert,
            ViewChange: self.on_view_change_msg,
            NewView: self._on_new_view,
        })

    def propose_batch(self, seqno: int, batch: Batch) -> None:
        digest = self.batch_digest(batch)
        history = self._claim_history(seqno, digest)
        self._order_digests[seqno] = digest
        order = OrderReq(self.view, seqno, batch, digest, history)
        assert self.config.n is not None
        peers = [f"r{r}" for r in range(self.config.n)
                 if r != self.replica_id]
        self.multicast_authenticated(peers, order)
        # The primary executes speculatively too.
        self.commit_batch(seqno, batch)

    def _on_order_req(self, src: str, m: OrderReq) -> None:
        self.follow_proposer(src, m.view)
        if m.view != self.view or self.is_leader or self.campaigning:
            return
        if not self.cpu.free:
            self.cpu.charge_mac(m.wire_bytes)
        self._claimed_history[m.seqno] = m.history_digest
        self._order_digests[m.seqno] = m.batch_digest
        # Speculative execution: commit immediately on the primary's order.
        self.commit_batch(m.seqno, m.batch)

    def _on_commit_cert(self, src: str, m: CommitCert) -> None:
        if not self.cpu.free:
            self.cpu.charge_mac(m.wire_bytes)
        self.certs_received += 1
        if m.seqno not in self.commit_log and m.seqno > self.ex:
            # A certified slot we never received: the primary failed to
            # deliver our ORDER-REQ.  Repair the gap from a certifying
            # replica and start suspecting the primary.
            if m.repliers:
                self.request_sync(m.repliers[0])
            if not self.is_leader:
                self.arm_suspicion()

    # -- history digest ---------------------------------------------------
    def _claim_history(self, seqno: int, digest: Digest) -> Digest:
        """The history digest the primary advertises for ``seqno``.

        ``h_n = D(h_{n-1}, d_n)`` when the rolling digest is contiguous up
        to ``seqno``; the extension is applied here (the synchronous
        execution that follows sees ``seqno`` already covered and skips
        it, so the digest is computed exactly once per proposal).  A
        primary proposing over a hole (sparse merge) ships its current
        digest and drops the anchor -- followers then skip verification
        until the next NEW-VIEW re-anchors everyone.
        """
        if self._history_anchored and seqno == self._history_covered + 1:
            self.cpu.charge_digest(64)
            self._history = digest_of((self._history, digest))
            self._history_covered = seqno
            return self._history
        self._history_anchored = False
        return self._history

    def _advance_history(self, seqno: int, batch: Batch) -> None:
        """Extend the rolling digest in execution order and verify the
        primary's claim for this slot (execution order *is* seqno order,
        unlike arrival order, so every replica computes the same h_n)."""
        claimed = self._claimed_history.pop(seqno, None)
        digest = self._order_digests.pop(seqno, None)
        if not self._history_anchored or seqno <= self._history_covered:
            return
        if seqno != self._history_covered + 1:
            # A state-transfer jump outran the rolling digest; re-anchor
            # at the next NEW-VIEW rather than verify against garbage.
            self._history_anchored = False
            return
        if digest is None:  # slot arrived via sync, not an ORDER-REQ
            digest = self.batch_digest(batch)
        self.cpu.charge_digest(64)
        self._history = digest_of((self._history, digest))
        self._history_covered = seqno
        if claimed is not None and claimed != self._history:
            self._on_history_divergence(seqno)

    def _on_history_divergence(self, seqno: int) -> None:
        """The primary's claimed history contradicts the locally
        recomputed one: our speculative state diverged from the primary's
        (a dropped/reordered slot, or a lying primary).  Repair via sync
        and start suspecting."""
        self.history_divergences += 1
        self._history_anchored = False
        if not self.is_leader:
            self.request_sync(self.leader_id)
            self.arm_suspicion()

    def _anchor_history(self, view: int,
                        entries: Tuple[Tuple[int, Batch], ...]) -> None:
        """Deterministically rebuild the rolling digest from a NEW-VIEW's
        merged entries, then replay any slots this replica already
        executed past the merge.  Every replica anchors from the same
        entries, so the digests agree in the new view no matter how far
        each replica's speculation had run."""
        self.cpu.charge_digest(64 * max(1, len(entries)))
        history = digest_of(("zyzzyva-history", view))
        covered = 0
        for sn, batch in entries:
            history = digest_of((history, batch.bodies_digest))
            covered = sn
        self._history = history
        self._history_covered = covered
        self._history_anchored = True
        self._claimed_history.clear()
        self._order_digests.clear()
        for sn in range(covered + 1, self.ex + 1):
            entry = self.commit_log.get(sn)
            if entry is None:
                self._history_anchored = False
                return
            self._history = digest_of(
                (self._history, entry.batch.bodies_digest))
            self._history_covered = sn

    def on_enter_view(self, view: int) -> None:
        # The old view's claims are void; checks stay suspended until the
        # NEW-VIEW re-anchors the rolling digest.
        self._history_anchored = False
        self._claimed_history.clear()
        self._order_digests.clear()

    def after_execute(self, seqno: int, entry: CommitEntry,
                      results: List[Any]) -> None:
        super().after_execute(seqno, entry, results)
        self._advance_history(seqno, entry.batch)
        # Every replica sends a speculative response to the client.
        self.reply_to_clients(seqno, entry.batch, results)

    # -- view change ------------------------------------------------------
    def make_view_change(self, target: int) -> ViewChange:
        entries = tuple((sn, entry.batch)
                        for sn, entry in self.commit_log.items())
        return ViewChange(target, self.replica_id, self.ex, entries)

    def install_view(self, target: int, msgs: Dict[int, Any]) -> None:
        merged: Dict[int, Batch] = {}
        freshest = self.replica_id
        freshest_ex = self.ex
        for m in msgs.values():
            for sn, batch in m.entries:
                merged.setdefault(sn, batch)
            if m.executed_upto > freshest_ex:
                freshest, freshest_ex = m.sender, m.executed_upto
        announcement = self.announce_view(merged)
        self._anchor_history(target, announcement.entries)
        self.sn = max(self.sn, self.ex, max(merged, default=0))
        if freshest_ex > self.ex:
            self.request_sync(freshest)

    def _on_new_view(self, src: str, m: NewView) -> None:
        if not self.adopt_new_view(src, m):
            return
        self._anchor_history(m.view, m.entries)
        self.sn = max(self.sn, self.ex,
                      max((sn for sn, _ in m.entries), default=0))
        self.execute_ready()
        if m.executed_upto > self.ex:
            self.request_sync(m.sender)
