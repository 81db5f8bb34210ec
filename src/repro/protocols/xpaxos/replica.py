"""The XPaxos replica: common case, view change, checkpointing, lazy
replication, retransmission handling, and (optionally) fault detection.

This module implements Algorithms 1-5 of the paper's Appendix B.  The
``t = 1`` fast path (Algorithm 1, Figure 2b) and the general path
(Algorithm 2, Figure 2a) are both present; the replica picks the path from
``config.t``.

State layout mirrors the pseudocode:

* ``view`` -- current view number ``i``.
* ``prepare_log`` / ``commit_log`` -- the paper's ``PrepareLog`` /
  ``CommitLog`` (sparse, checkpoint-truncated).
* ``sn`` -- highest sequence number prepared locally; ``ex`` -- highest
  executed.
* View-change state is per target view: the ``VCSet``, received
  ``VC-FINAL``s, the ``2 Delta`` network timer, and the view-change timer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.config import ClusterConfig
from repro.common.errors import ProtocolViolation
from repro.crypto.costs import CostModel
from repro.crypto.primitives import (
    Digest,
    KeyStore,
    digest_of,
    replica_principal,
)
from repro.net.network import Network
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.detection import FaultDetector
from repro.protocols.xpaxos.groups import SynchronousGroups
from repro.sim.core import Simulator
from repro.sim.process import Timer
from repro.smr.app import StateMachine
from repro.smr.log import CommitEntry, PrepareEntry, PrepareLog
from repro.smr.messages import Batch, Request
from repro.smr.runtime import ReplicaBase


@dataclass
class _ViewChangeState:
    """Per-target-view bookkeeping during a view change."""

    vcset: Dict[int, msg.ViewChange] = field(default_factory=dict)
    vc_finals: Dict[int, msg.VcFinal] = field(default_factory=dict)
    vc_confirms: Dict[int, msg.VcConfirm] = field(default_factory=dict)
    net_timer_expired: bool = False
    sent_vc_final: bool = False
    confirmed_digest: Optional[Digest] = None
    processed_new_view: bool = False


@dataclass
class _RetransmissionState:
    """Per-request bookkeeping for Algorithm 4."""

    request: Request
    shares: Dict[int, msg.SignedReplyShare] = field(default_factory=dict)
    timer: Optional[Timer] = None
    done: bool = False
    retries: int = 0


def _wire_len(result: Any) -> int:
    """Reply bytes on the wire: the length of a sized application result,
    0 for scalars and ``None``."""
    return len(result) if hasattr(result, "__len__") else 0


class XPaxosReplica(ReplicaBase):
    """One XPaxos replica (active or passive depending on the view)."""

    def __init__(self, replica_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 app_factory: Callable[[], StateMachine], site: str,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(replica_id, config, sim, network, keystore,
                         app_factory, site, cost_model)
        assert config.n is not None
        self.groups = SynchronousGroups(config.n, config.t)
        self.prepare_log = PrepareLog()
        self.prepare_view = 0   # view in which prepare_log was generated (FD)

        # Per-slot transient state for the general (t >= 2) path.
        self._commit_votes: Dict[int, Dict[int, msg.CommitVote]] = {}
        self._pending_prepares: Dict[int, Any] = {}  # out-of-order buffer
        # t = 1: the follower's FastCommit per slot, until the primary
        # has executed the slot and embedded it in the replies.
        self._fast_commits_pending: Dict[int, msg.FastCommit] = {}

        # View change.
        self._suspected_views: Set[int] = set()
        self._forwarded_suspects: Set[tuple] = set()
        self._vc: Dict[int, _ViewChangeState] = {}
        # Our own (view, selection, checkpoint) while waiting, as a
        # follower, for the primary's NEW-VIEW to cross-check against.
        self._pending_selection: Optional[Tuple] = None
        self._net_timer = Timer(self, self._on_net_timer, "timer_net")
        self._vc_timer = Timer(self, self._on_vc_timer, "timer_vc")
        self._vc_retx_timer = Timer(self, self._on_vc_retransmit,
                                    "timer_vc_retx")
        self.view_changes_completed = 0
        self.in_view_change = False

        # Fault detection.
        self.detector = FaultDetector(self) if config.use_fault_detection \
            else None
        self.detected_faulty: Set[int] = set()
        self.final_proofs: Dict[int, Tuple] = {}

        # Checkpointing.
        self._prechk_votes: Dict[int, Dict[int, bytes]] = {}
        self._chkpt_sigs: Dict[int, Dict[int, msg.Chkpt]] = {}
        self.stable_checkpoint: Optional[msg.CheckpointProof] = None

        # Retransmission handling (Algorithm 4).
        self._retransmissions: Dict[tuple, _RetransmissionState] = {}
        self._buffered_resends: List[msg.ReSend] = []

        # State retrieval for recovering/lagging passive replicas.
        self._fetch_pending = False

        # Fault-injection hooks (see repro.faults): mutate outgoing
        # view-change content to model non-crash faults.
        self.byzantine: Optional[Any] = None

        # Only the configured ordering path is wired: the t = 1 pattern
        # (FastPrepare / FastCommit) or the general one (Prepare /
        # CommitVote); the other path's messages are unknown types here.
        if config.t == 1:
            self._accept_ordered = self._accept_fast_prepare
            ordering = {msg.FastPrepare: self._on_prepare,
                        msg.FastCommit: self._on_fast_commit}
        else:
            self._accept_ordered = self._accept_prepare
            ordering = {msg.Prepare: self._on_prepare,
                        msg.CommitVote: self._on_commit_vote}
        self._handlers: Dict[type, Callable[[str, Any], None]] = {
            **ordering,
            msg.Replicate: self._on_replicate,
            msg.Suspect: self._on_suspect,
            msg.ViewChange: self._on_view_change,
            msg.VcFinal: self._on_vc_final,
            msg.VcConfirm: self._on_vc_confirm,
            msg.NewView: self._on_new_view,
            msg.PreChk: self._on_prechk,
            msg.Chkpt: self._on_chkpt,
            msg.LazyChk: self._on_lazychk,
            msg.LazyCommit: self._on_lazy_commit,
            msg.FetchEntries: self._on_fetch,
            msg.FetchReply: self._on_fetch_reply,
            msg.ReSend: self._on_resend,
            msg.SignedReplyShare: self._on_signed_reply_share,
            msg.FaultAccusation: self._on_fault_accusation,
        }

    # ------------------------------------------------------------------
    # Role helpers
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """Is this replica in the current synchronous group?"""
        return self.groups.is_active(self.view, self.replica_id)

    @property
    def is_primary(self) -> bool:
        """Is this replica the current primary?"""
        return self.groups.is_primary(self.view, self.replica_id)

    @property
    def is_follower(self) -> bool:
        """Is this replica a follower in the current view?"""
        return self.is_active and not self.is_primary

    def _active_names(self, view: Optional[int] = None) -> List[str]:
        v = self.view if view is None else view
        return [self.replica_name(r) for r in self.groups.group(v)]

    def _passive_names(self, view: Optional[int] = None) -> List[str]:
        v = self.view if view is None else view
        return [self.replica_name(r) for r in self.groups.passive(v)]

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            return  # unknown message types are ignored, not fatal
        try:
            handler(src, payload)
        except ProtocolViolation:
            # Section 4.3.2 case (i): a non-conforming message from an
            # active replica triggers view-change initiation.
            self.suspect_view(self.view)

    # ==================================================================
    # Common case -- Algorithms 1 and 2
    # ==================================================================
    def _on_replicate(self, src: str, m: msg.Replicate) -> None:
        request = m.request
        if not self._verify_request(request):
            return
        if not self.is_primary or self.in_view_change:
            return  # clients retransmit to the right primary eventually
        if not self.answer_from_cache(request):
            self.sequencer.offer(request)

    def _verify_request(self, request: Request) -> bool:
        """Verify the client's signature on a request."""
        if request.signature is None:
            return False
        self.cpu.charge_verify()
        return self.keystore.verify_digest(request.signature,
                                           request.body_digest())

    def may_propose(self) -> bool:
        """May this replica cut batches right now (sequencer hook)?"""
        return self.is_primary and not self.in_view_change

    def propose_batch(self, seqno: int, batch: Batch) -> None:
        """Start ordering one sequencer-cut batch on the configured path."""
        if self.config.t == 1:
            self._fast_propose(seqno, batch)
        else:
            self._propose(seqno, batch)

    # -- general case (t >= 2) ------------------------------------------
    def _propose(self, seqno: int, batch: Batch) -> None:
        batch_digest = self._batch_digest(batch)
        prepare = msg.Prepare.signed(self.sign, view=self.view, seqno=seqno,
                                     batch=batch, batch_digest=batch_digest)
        entry = PrepareEntry(seqno, self.view, batch, prepare.primary_sig)
        self.prepare_log.put(seqno, entry)
        self.multicast_authenticated(
            [self.replica_name(f) for f in self.groups.followers(self.view)],
            prepare, size_bytes=batch.size_bytes)

    def _on_prepare(self, src: str, m: Any) -> None:
        """The one ordering intake of a follower, for the configured
        path's ``Prepare`` / ``FastPrepare``: gate, verify, accept in
        sequence order (docs/execution.md)."""
        if m.view != self.view or not self.is_follower:
            return
        if self.in_view_change:
            # A prepare for the view we are still installing: the sender
            # adopted it a moment before us.  Buffer and drain on adoption.
            self._pending_prepares[m.seqno] = m
            return
        if src != self.replica_name(self.groups.primary(self.view)):
            return
        if self._batch_digest(m.batch) != m.batch_digest:
            raise ProtocolViolation("prepare digest mismatch")
        if not msg.verify_signed(self, m):
            raise ProtocolViolation("bad primary signature on prepare")
        for request in m.batch:
            if not self._verify_request(request):
                raise ProtocolViolation("bad client signature in batch")
        if m.seqno != self.sn + 1:
            if m.seqno > self.sn + 1:
                self._pending_prepares[m.seqno] = m  # out-of-order buffer
            return
        self._accept_ordered(m)
        # Drain any buffered successors that are now in order.
        while self.sn + 1 in self._pending_prepares:
            self._accept_ordered(self._pending_prepares.pop(self.sn + 1))

    def _accept_prepare(self, m: msg.Prepare) -> None:
        self.sn = m.seqno
        entry = PrepareEntry(m.seqno, m.view, m.batch, m.primary_sig)
        self.prepare_log.put(m.seqno, entry)
        vote = msg.CommitVote.signed(
            self.sign, view=m.view, seqno=m.seqno,
            batch_digest=m.batch_digest, sender=self.replica_id)
        # Record our own vote at this replica's position in the active list
        # so the send (and latency draw) order matches a sequential loop.
        self._fanout_with_self(self._active_names(), vote, 64,
                               lambda: self._record_commit_vote(vote))

    def _on_commit_vote(self, src: str, m: msg.CommitVote) -> None:
        if m.view != self.view or not self.is_active or self.in_view_change:
            return
        if m.sender not in self.groups.followers(self.view):
            return
        if not msg.verify_signed(self, m):
            raise ProtocolViolation("bad follower signature on commit")
        self._record_commit_vote(m)

    def _record_commit_vote(self, vote: msg.CommitVote) -> None:
        votes = self._commit_votes.setdefault(vote.seqno, {})
        votes[vote.sender] = vote
        self._try_commit_general(vote.seqno)

    def _try_commit_general(self, seqno: int) -> None:
        """Commit once the prepare entry and all t follower votes are in."""
        if seqno in self.commit_log:
            return
        entry = self.prepare_log.get(seqno)
        if entry is None:
            return
        votes = self._commit_votes.get(seqno, {})
        followers = set(self.groups.followers(self.view))
        have = {s for s in votes if s in followers}
        if len(have) < self.config.t:
            return
        batch_digest = self._batch_digest(entry.batch)
        matching = [votes[s].sig for s in sorted(have)
                    if votes[s].batch_digest == batch_digest]
        if len(matching) < self.config.t:
            return
        proof = (entry.primary_sig, *matching)
        self.commit_log.put(
            seqno, CommitEntry(seqno, entry.view, entry.batch, proof))
        self._commit_votes.pop(seqno, None)
        self.execute_ready()

    # -- fast path (t = 1) ------------------------------------------------
    def _fast_propose(self, seqno: int, batch: Batch) -> None:
        batch_digest = self._batch_digest(batch)
        fast = msg.FastPrepare.signed(
            self.sign, view=self.view, seqno=seqno, batch=batch,
            batch_digest=batch_digest)
        entry = PrepareEntry(seqno, self.view, batch, fast.m0)
        self.prepare_log.put(seqno, entry)
        follower = self.groups.followers(self.view)[0]
        self.send_authenticated(self.replica_name(follower), fast,
                                size_bytes=batch.size_bytes)

    def _accept_fast_prepare(self, m: msg.FastPrepare) -> None:
        """Follower side of the t = 1 pattern: execute, sign m1, log."""
        self.sn = m.seqno
        # The slot executes before its commit entry can exist (m1 signs
        # the reply digest), so this path bypasses execute_ready().
        results = self.execute_slot(m.seqno, m.batch)
        reply_digest = digest_of(tuple(results))
        fast_commit = msg.FastCommit.signed(
            self.sign, view=m.view, seqno=m.seqno,
            batch_digest=m.batch_digest, reply_digest=reply_digest)
        entry = CommitEntry(m.seqno, m.view, m.batch,
                            (m.m0, fast_commit.m1))
        self.commit_log.put(m.seqno, entry)
        # The follower does not answer clients in the fast path, but it
        # must remember its replies so the retransmission protocol
        # (Algorithm 4) can later produce its signed reply share.
        self.cache_unsent(m.seqno, m.batch, results)
        primary = self.groups.primary(self.view)
        self.send_authenticated(self.replica_name(primary), fast_commit,
                                size_bytes=96)
        self._lazy_replicate(entry)
        self._maybe_checkpoint(m.seqno)

    def _on_fast_commit(self, src: str, m: msg.FastCommit) -> None:
        if m.view != self.view or not self.is_primary \
                or self.in_view_change:
            return
        follower = self.groups.followers(self.view)[0]
        if src != self.replica_name(follower):
            return
        entry = self.prepare_log.get(m.seqno)
        if entry is None or self._batch_digest(entry.batch) != m.batch_digest:
            return
        if not msg.verify_signed(self, m):
            raise ProtocolViolation("bad m1 signature")
        if m.seqno in self.commit_log:
            return
        commit_entry = CommitEntry(m.seqno, m.view, entry.batch,
                                   (entry.primary_sig, m.m1))
        self.commit_log.put(m.seqno, commit_entry)
        self._fast_commits_pending[m.seqno] = m
        self.execute_ready()

    # -- execution ---------------------------------------------------------
    def after_execute(self, seqno: int, entry: CommitEntry,
                      results: List[Any]) -> None:
        active = self.is_active
        # The primary and the t >= 2 followers answer; the t = 1 follower
        # (its vote travels as ``m1``) and passive replicas stay silent
        # and keep the full result for the signed shares Algorithm 4 may
        # ask of them later.
        if active and (self.config.t >= 2 or self.is_primary):
            self._reply_to_clients(seqno, entry.batch, results)
        else:
            self.cache_unsent(seqno, entry.batch, results)
        if active and self.config.t >= 2 and self.is_follower:
            self._lazy_replicate(entry)
        self._maybe_checkpoint(seqno)

    def make_reply(self, view: int, seqno: int, request: Request,
                   result: Any, full: bool = True,
                   follower_commit: Optional[msg.FastCommit] = None,
                   size_bytes: int = 0) -> msg.ReplyMsg:
        """The one place a :class:`ReplyMsg` is built.  A reply cached
        without being sent claims no wire bytes (``size_bytes`` 0)."""
        return msg.ReplyMsg(self.replica_id, view, seqno, request.timestamp,
                            request.client, result if full else None,
                            digest_of(result), follower_commit, size_bytes)

    def cache_unsent(self, seqno: int, batch: Batch,
                     results: List[Any]) -> None:
        """A silent replica executed a slot: remember it, and give any
        retransmission already waiting on one of its requests its share
        now."""
        super().cache_unsent(seqno, batch, results)
        if self._retransmissions:
            for request in batch.requests:
                if request.rid in self._retransmissions:
                    self._emit_signed_reply_share(request)

    def _reply_to_clients(self, seqno: int, batch: Batch,
                          results: List[Any]) -> None:
        """An active replica answers a committed slot: per request, cache
        the reply (dedup + Algorithm 4), emit its signed share if a
        retransmission is waiting on it, then send -- the full result from
        the primary, at t = 1 embedding the follower's ``m1``, and the
        digest alone from the t >= 2 followers."""
        primary = self.is_primary
        fast = None
        if primary and self.config.t == 1:
            fast = self._fast_commits_pending.pop(seqno, None)
            # Cross-check our reply digest against the follower's.
            if fast is not None \
                    and digest_of(tuple(results)) != fast.reply_digest:
                raise ProtocolViolation(
                    "follower reply digest mismatch (divergent state)")
        view = self.view
        last_reply = self._last_reply
        waiting = self._retransmissions
        # A follower sends the digest alone but remembers the full result,
        # as a silent replica does: the t + 1 shares Algorithm 4 gathers
        # must carry it even when none comes from the slot's primary.
        slot = (view, seqno, batch, results)
        for index, request in enumerate(batch.requests):
            result = results[index]
            size = _wire_len(result) if primary else 32
            reply = self.make_reply(view, seqno, request, result, primary,
                                    fast, size)
            last_reply[request.client] = reply if primary else (slot, index)
            if waiting and request.rid in waiting:
                self._emit_signed_reply_share(request)
            self.send_authenticated(f"c{request.client}", reply, size)

    def _batch_digest(self, batch: Batch) -> Digest:
        self.cpu.charge_digest(batch.size_bytes)
        return msg.batch_digest_of(batch)

    # ==================================================================
    # View change -- Algorithm 3
    # ==================================================================
    def suspect_view(self, view: int) -> None:
        """Initiate a view change for ``view`` (Section 4.3.2)."""
        if view != self.view or view in self._suspected_views:
            return
        if not self.groups.is_active(view, self.replica_id):
            return  # only active replicas may initiate
        self._suspected_views.add(view)
        suspect = msg.Suspect.signed(self.sign, view=view,
                                     sender=self.replica_id)
        self.multicast_authenticated(self.other_replica_names(), suspect,
                                     size_bytes=48)
        self._process_suspect(suspect)

    def _on_suspect(self, src: str, m: msg.Suspect) -> None:
        if not self.groups.is_active(m.view, m.sender):
            return  # only active replicas of that view may suspect it
        if not msg.verify_signed(self, m):
            return
        key = (m.view, m.sender)
        if key not in self._forwarded_suspects:
            self._forwarded_suspects.add(key)
            self.multicast_authenticated(
                [n for n in self.all_replica_names()
                 if n != self.name and n != src],
                m, size_bytes=48)
        self._process_suspect(m)

    def _process_suspect(self, m: msg.Suspect) -> None:
        """Enter view ``m.view + 1`` if the suspicion concerns our view."""
        if m.view < self.view:
            return
        # Enter each view in order (Algorithm 3 line 6-7): a suspect for a
        # future view fast-forwards us through the intermediate ones.
        target = m.view + 1
        while self.view < target:
            self._enter_view(self.view + 1)

    def _enter_view(self, new_view: int) -> None:
        """Stop the old view and send our VIEW-CHANGE to the new actives."""
        self.view = new_view
        self.in_view_change = True
        self.sequencer.stop_timer()
        self._pending_prepares.clear()
        self._commit_votes.clear()
        # Give pending retransmissions a fresh window: the new view needs
        # time to form before it can possibly commit them.
        for state in self._retransmissions.values():
            if not state.done and state.timer is not None \
                    and state.timer.armed:
                state.timer.start(4 * self.config.delta_ms
                                  + 8 * self.config.batch_timeout_ms)
        vc = self._build_view_change(new_view)
        self._fanout_with_self(self._active_names(new_view), vc,
                               self._vc_size(vc),
                               lambda: self._record_view_change(vc))
        if self.groups.is_active(new_view, self.replica_id):
            self._vc.setdefault(new_view, _ViewChangeState())
            self._net_timer.start(2 * self.config.delta_ms)
            self._vc_timer.start(self.config.view_change_timeout_ms)
        else:
            # Passive in the new view: re-send our VIEW-CHANGE until the
            # change is observed complete (see _on_vc_retransmit).
            self._vc_retx_timer.start(self.config.view_change_timeout_ms)

    def _on_vc_retransmit(self) -> None:
        """Reliable-channel emulation: the paper assumes a VIEW-CHANGE
        sent while its receiver is down is retransmitted until received.
        The simulator sends once, so a replica that is the sole holder of
        a committed entry (e.g. the survivor of overlapping crashes)
        could have its log silently excluded from the n - t VCSet --
        losing committed state outside anarchy (the Appendix A pattern
        without any non-crash fault).  Active replicas already escalate
        through their view-change timer; the passive replica of the
        pending view (which has no timer) re-sends its VIEW-CHANGE on the
        same cadence until the change is observed complete."""
        if not self.in_view_change \
                or self.groups.is_active(self.view, self.replica_id):
            return
        vc = self._build_view_change(self.view)
        self.multicast_authenticated(self._active_names(self.view), vc,
                                     size_bytes=self._vc_size(vc))
        self._vc_retx_timer.start(self.config.view_change_timeout_ms)

    def _build_view_change(self, new_view: int) -> msg.ViewChange:
        commit_entries = tuple(self.commit_log.items())
        prepare_entries = None
        final_proof = None
        if self.config.use_fault_detection:
            prepare_entries = tuple(self.prepare_log.items())
            final_proof = self.final_proofs.get(self.prepare_view)
        vc = msg.ViewChange.signed(
            self.sign, new_view=new_view, sender=self.replica_id,
            commit_entries=commit_entries,
            checkpoint=self.stable_checkpoint,
            prepare_entries=prepare_entries,
            prepare_view=self.prepare_view,
            final_proof=final_proof)
        if self.byzantine is not None:
            vc = self.byzantine.mutate_view_change(self, vc)
        return vc

    @staticmethod
    def _vc_size(vc: msg.ViewChange) -> int:
        size = 128
        for _, entry in vc.commit_entries:
            size += entry.batch.size_bytes + 128
        if vc.prepare_entries:
            for _, entry in vc.prepare_entries:
                size += entry.batch.size_bytes + 64
        return size

    def _on_view_change(self, src: str, m: msg.ViewChange) -> None:
        if m.new_view < self.view or not msg.verify_signed(self, m):
            return
        if m.new_view > self.view:
            # We are behind: a view change for a future view implies its
            # initiators suspected everything up to it.
            while self.view < m.new_view:
                self._enter_view(self.view + 1)
        if not self.groups.is_active(m.new_view, self.replica_id):
            return
        self._record_view_change(m)

    def _record_view_change(self, m: msg.ViewChange) -> None:
        state = self._vc.setdefault(m.new_view, _ViewChangeState())
        # First message per (view, sender) wins: retransmissions rebuild
        # the message from live state, and actives must select from the
        # same VCSet or the NEW-VIEW cross-check would mis-fire.
        state.vcset.setdefault(m.sender, m)
        self._maybe_send_vc_final(m.new_view)

    def _on_net_timer(self) -> None:
        state = self._vc.get(self.view)
        if state is None:
            return
        state.net_timer_expired = True
        self._maybe_send_vc_final(self.view)

    def _maybe_send_vc_final(self, new_view: int) -> None:
        """Algorithm 3 line 13: all n collected, or timer expired with
        >= n - t."""
        if new_view != self.view:
            return
        state = self._vc.get(new_view)
        if state is None or state.sent_vc_final:
            return
        n = self.config.n
        assert n is not None
        enough = (len(state.vcset) >= n
                  or (state.net_timer_expired
                      and len(state.vcset) >= n - self.config.t))
        if not enough:
            return
        state.sent_vc_final = True
        self._net_timer.stop()
        vcset = tuple(sorted(state.vcset.values(), key=lambda v: v.sender))
        final = msg.VcFinal.signed(
            self.sign, new_view=new_view, sender=self.replica_id,
            vcset=vcset, vcset_digest=digest_of(vcset))
        self._fanout_with_self(self._active_names(new_view), final, 256,
                               lambda: self._record_vc_final(final))

    def _on_vc_final(self, src: str, m: msg.VcFinal) -> None:
        if m.new_view != self.view:
            return
        if not self.groups.is_active(m.new_view, self.replica_id):
            return
        if m.sender not in self.groups.group(m.new_view):
            return
        if not msg.verify_signed(self, m) \
                or digest_of(m.vcset) != m.vcset_digest:
            return
        # Nothing is merged unless every piggybacked VIEW-CHANGE is one
        # its sender signed for this view; the ones we already hold as
        # the very same object were checked on arrival.
        held = self._vc.setdefault(m.new_view, _ViewChangeState()).vcset
        for vc in m.vcset:
            if vc.new_view != m.new_view or (
                    held.get(vc.sender) is not vc
                    and not msg.verify_signed(self, vc)):
                return
        self._record_vc_final(m)

    def _record_vc_final(self, m: msg.VcFinal) -> None:
        state = self._vc.setdefault(m.new_view, _ViewChangeState())
        state.vc_finals[m.sender] = m
        # Merge the piggybacked view-change messages into our VCSet.
        for vc in m.vcset:
            state.vcset.setdefault(vc.sender, vc)
        needed = set(self.groups.group(m.new_view))
        if set(state.vc_finals) < needed:
            return
        if self.config.use_fault_detection:
            self._run_fault_detection(m.new_view, state)
        else:
            self._finish_view_change(m.new_view, state)

    # -- fault-detection insertion point (Algorithm 5) --------------------
    def _run_fault_detection(self, new_view: int,
                             state: _ViewChangeState) -> None:
        assert self.detector is not None
        if state.confirmed_digest is not None:
            return  # already ran
        merged: Dict[int, msg.ViewChange] = {}
        for final in state.vc_finals.values():
            for vc in final.vcset:
                merged.setdefault(vc.sender, vc)
        merged.update(state.vcset)
        faulty = self.detector.detect(new_view, list(merged.values()))
        for accused in faulty:
            self.detected_faulty.add(accused)
        clean = {sender: vc for sender, vc in merged.items()
                 if sender not in faulty}
        state.vcset = clean
        vcset = tuple(sorted(clean.values(), key=lambda v: v.sender))
        vcset_digest = digest_of(vcset)
        state.confirmed_digest = vcset_digest
        confirm = msg.VcConfirm.signed(
            self.sign, new_view=new_view, sender=self.replica_id,
            vcset_digest=vcset_digest)
        self._fanout_with_self(self._active_names(new_view), confirm, 96,
                               lambda: self._record_vc_confirm(confirm))

    def _on_vc_confirm(self, src: str, m: msg.VcConfirm) -> None:
        if m.new_view != self.view:
            return
        if not self.groups.is_active(m.new_view, self.replica_id):
            return
        if m.sender not in self.groups.group(m.new_view) \
                or not msg.verify_signed(self, m):
            return
        self._record_vc_confirm(m)

    def _record_vc_confirm(self, m: msg.VcConfirm) -> None:
        state = self._vc.setdefault(m.new_view, _ViewChangeState())
        state.vc_confirms[m.sender] = m
        needed = set(self.groups.group(m.new_view))
        if set(state.vc_confirms) < needed:
            return
        digests = {c.vcset_digest for c in state.vc_confirms.values()}
        if len(digests) != 1:
            self.suspect_view(self.view)
            return
        self.final_proofs[m.new_view] = tuple(
            c.sig for c in sorted(state.vc_confirms.values(),
                                  key=lambda c: c.sender))
        self._finish_view_change(m.new_view, state)

    # -- state selection and NEW-VIEW -------------------------------------
    def _finish_view_change(self, new_view: int,
                            state: _ViewChangeState) -> None:
        selection, checkpoint = self._select_state(state)
        if self.groups.is_primary(new_view, self.replica_id):
            # Re-propose every selected slot in the new view, signed as
            # the configured path's prepare would be.
            ordering = msg.FastPrepare if self.config.t == 1 else msg.Prepare
            entries = tuple(
                PrepareEntry(seqno, new_view, entry.batch, self.sign(
                    ordering.payload_of(
                        batch_digest=msg.batch_digest_of(entry.batch),
                        seqno=seqno, view=new_view)))
                for seqno, entry in sorted(selection.items()))
            new_view_msg = msg.NewView.signed(
                self.sign, new_view=new_view, entries=entries,
                checkpoint=checkpoint)
            self._fanout_with_self(
                self._active_names(new_view), new_view_msg, 1024,
                lambda: self._adopt_new_view(new_view_msg, selection))
        # Followers wait for the primary's NEW-VIEW; _vc_timer still runs.
        self._pending_selection = (new_view, selection, checkpoint)

    def _select_state(self, state: _ViewChangeState):
        """Per sequence number, pick the entry with the highest view
        (Section 4.3.3), considering prepare logs too under FD
        (Algorithm 5 lines 12-20)."""
        selection: Dict[int, CommitEntry] = {}
        best_checkpoint: Optional[msg.CheckpointProof] = None
        for vc in state.vcset.values():
            proof = vc.checkpoint
            if proof is not None \
                    and (best_checkpoint is None
                         or proof.seqno > best_checkpoint.seqno) \
                    and self._checkpoint_proof_valid(proof):
                best_checkpoint = proof
            for seqno, entry in vc.commit_entries:
                current = selection.get(seqno)
                if current is None or entry.view > current.view:
                    selection[seqno] = entry
            if self.config.use_fault_detection and vc.prepare_entries:
                for seqno, pentry in vc.prepare_entries:
                    current = selection.get(seqno)
                    if current is None or pentry.view > current.view:
                        selection[seqno] = CommitEntry(
                            seqno, pentry.view, pentry.batch,
                            (pentry.primary_sig,))
        if best_checkpoint is not None:
            selection = {sn: e for sn, e in selection.items()
                         if sn > best_checkpoint.seqno}
        return selection, best_checkpoint

    def _on_new_view(self, src: str, m: msg.NewView) -> None:
        if m.new_view != self.view:
            return
        if not self.groups.is_active(m.new_view, self.replica_id):
            return
        primary = self.groups.primary(m.new_view)
        if src != self.replica_name(primary):
            return
        if not msg.verify_signed(self, m):
            self.suspect_view(self.view)
            return
        # Verify the primary's selection against our own (Algorithm 3
        # line 26): mismatch means a faulty primary -> suspect.
        pending = self._pending_selection
        if pending is not None and pending[0] == m.new_view:
            _, selection, _ = pending
            expected = {sn: msg.batch_digest_of(e.batch)
                        for sn, e in selection.items()}
            offered = {e.seqno: msg.batch_digest_of(e.batch)
                       for e in m.entries}
            if expected != offered:
                self.suspect_view(self.view)
                return
        selection = {e.seqno: CommitEntry(e.seqno, e.view, e.batch,
                                          (e.primary_sig,))
                     for e in m.entries}
        self._adopt_new_view(m, selection)

    def _adopt_new_view(self, m: msg.NewView,
                        selection: Dict[int, CommitEntry]) -> None:
        state = self._vc.get(m.new_view)
        if state is not None and state.processed_new_view:
            return
        # State transfer: restore from the checkpoint if we are behind it.
        if not self._install_checkpoint(m.checkpoint):
            # Only a faulty primary announces a proof that does not verify.
            self.suspect_view(self.view)
            return
        if state is not None:
            state.processed_new_view = True
        # Re-commit every selected request in the new view.
        for entry in m.entries:
            self.prepare_log.put(entry.seqno,
                                 PrepareEntry(entry.seqno, m.new_view,
                                              entry.batch,
                                              entry.primary_sig))
            proof = (entry.primary_sig,)
            self.commit_log.put(entry.seqno,
                                CommitEntry(entry.seqno, m.new_view,
                                            entry.batch, proof))
        self.prepare_view = m.new_view
        highest = max((e.seqno for e in m.entries), default=0)
        if m.checkpoint is not None:
            highest = max(highest, m.checkpoint.seqno)
        highest = max(highest, self.ex)
        # Algorithm 3 line 29: sn <- End(PrepareLog).  Slots this replica
        # prepared in older views that the selection did not adopt are
        # abandoned (their clients retransmit); keeping a higher sn would
        # make the follower reject every new prepare as out-of-order.
        self.sn = highest
        for stale in [s for s, _ in self.prepare_log.items() if s > highest]:
            self.prepare_log.drop(stale)
        self.execute_ready()
        # Catch up execution over any holes left by a sparse selection: a
        # hole below the highest selected seqno means no request committed
        # there in any previous view, so it is skipped.
        if self.ex < highest:
            for seqno in range(self.ex + 1, highest + 1):
                if seqno not in self.commit_log:
                    self.ex = seqno
                else:
                    self.execute_ready()
            self.execute_ready()
        self._vc_timer.stop()
        self._vc_retx_timer.stop()
        self.in_view_change = False
        self.view_changes_completed += 1
        # Drain prepares for this view that arrived while we were still
        # installing it (they were buffered by the prepare handlers).
        if self.is_follower:
            primary_name = self.replica_name(
                self.groups.primary(self.view))
            buffered_prepares = [p for _, p in sorted(
                self._pending_prepares.items())
                if getattr(p, "view", -1) == self.view]
            self._pending_prepares.clear()
            for prepared in buffered_prepares:
                self.sim.call_soon(
                    lambda p=prepared: self._on_prepare(primary_name, p))
        # Replay client retransmissions that arrived during the change, and
        # re-drive every still-unresolved retransmission: requests prepared
        # but not committed in the old view were dropped by the state
        # selection, and waiting for the client's next backoff retry would
        # race the replica-side progress timer.
        buffered, self._buffered_resends = self._buffered_resends, []
        if self.is_active:
            for resend in buffered:
                self.sim.call_soon(
                    lambda m=resend: self._on_resend("buffered", m))
            for state in self._retransmissions.values():
                if state.done or state.request.signature is None:
                    continue
                resend = msg.ReSend(state.request)
                self.sim.call_soon(
                    lambda m=resend: self._on_resend("replayed", m))
        # Start afresh in the new view.
        if self.is_primary:
            self.sequencer.reset_seen(
                req.rid for _, e in self.commit_log.items()
                for req in e.batch)
            # Slots prepared in the old view and re-adopted here are
            # carried state, outside the new view's pipeline window.
            self.sequencer.carry_over()
            self.sequencer.kick()

    def _on_vc_timer(self) -> None:
        """The view change did not complete in time (Section 4.3.2 (iii))."""
        if self.in_view_change:
            self._suspected_views.discard(self.view)
            self.suspect_view(self.view)

    # ==================================================================
    # Checkpointing -- Section 4.5.1
    # ==================================================================
    def _maybe_checkpoint(self, seqno: int) -> None:
        if seqno % self.config.checkpoint_period != 0:
            return
        if not self.is_active:
            return
        state_digest = self.app.state_digest()
        prechk = msg.PreChk(seqno, self.view, state_digest, self.replica_id)
        # 44 payload bytes + the 20-byte transport MAC = the 64 bytes the
        # embedded-MAC encoding used to put on the wire.
        self._fanout_with_self(
            self._active_names(), prechk, 44,
            lambda: self._record_prechk(seqno, self.replica_id,
                                        state_digest))

    def _on_prechk(self, src: str, m: msg.PreChk) -> None:
        # The channel MAC was stamped and verified by the transport
        # (MAC_VECTOR policy): a forged or tampered PRECHK never gets here.
        if m.view != self.view or not self.is_active:
            return
        if src != self.replica_name(m.sender):
            return  # a replica cannot inject PreChk votes for a peer
        self._record_prechk(m.seqno, m.sender, m.state_digest)

    def _record_prechk(self, seqno: int, sender: int,
                       state_digest: bytes) -> None:
        votes = self._prechk_votes.setdefault(seqno, {})
        votes[sender] = state_digest
        if self.replica_id not in votes or len(votes) < self.config.t + 1:
            return
        my_digest = votes[self.replica_id]
        if sum(1 for d in votes.values() if d == my_digest) \
                < self.config.t + 1:
            return
        if seqno in self._chkpt_sigs and self.replica_id in \
                self._chkpt_sigs[seqno]:
            return
        chkpt = msg.Chkpt.signed(
            self.sign, seqno=seqno, view=self.view, state_digest=my_digest,
            sender=self.replica_id)
        self._fanout_with_self(self._active_names(), chkpt, 96,
                               lambda: self._record_chkpt(chkpt))

    def _on_chkpt(self, src: str, m: msg.Chkpt) -> None:
        if m.view != self.view or not self.is_active:
            return
        if m.sender not in self.groups.group(m.view) \
                or not msg.verify_signed(self, m):
            return
        self._record_chkpt(m)

    def _record_chkpt(self, m: msg.Chkpt) -> None:
        sigs = self._chkpt_sigs.setdefault(m.seqno, {})
        sigs[m.sender] = m
        matching = [c for c in sigs.values()
                    if c.state_digest == m.state_digest]
        if len(matching) < self.config.t + 1:
            return
        if (self.stable_checkpoint is not None
                and self.stable_checkpoint.seqno >= m.seqno):
            return
        proof = msg.CheckpointProof(
            seqno=m.seqno, view=m.view, state_digest=m.state_digest,
            sigs=tuple(c.sig for c in matching[: self.config.t + 1]),
            snapshot=self.app.snapshot())
        self.stable_checkpoint = proof
        self.commit_log.truncate_to(m.seqno)
        self.prepare_log.truncate_to(m.seqno)
        self._prechk_votes = {sn: v for sn, v in self._prechk_votes.items()
                              if sn > m.seqno}
        self._chkpt_sigs = {sn: v for sn, v in self._chkpt_sigs.items()
                            if sn > m.seqno}
        self.multicast_authenticated(self._passive_names(),
                                     msg.LazyChk(proof), size_bytes=512)

    def _on_lazychk(self, src: str, m: msg.LazyChk) -> None:
        # Modelled cost of checking the proof's signatures, paid whether
        # or not the checkpoint turns out to be news to us.
        for _ in m.proof.sigs:
            self.cpu.charge_verify()
        if self._install_checkpoint(m.proof):
            self.execute_ready()

    def _checkpoint_proof_valid(self, proof: msg.CheckpointProof) -> bool:
        """Is ``proof`` signed by t + 1 distinct members of its view's
        synchronous group, each over this very (seqno, view, state digest)?

        The snapshot is not hashed against ``state_digest``:
        ``NullService.restore`` deliberately does not round-trip its
        running hash, so honest proofs would fail that check.
        """
        members = {replica_principal(r): r
                   for r in self.groups.group(proof.view)}
        signers = set()
        for sig in proof.sigs:
            signer = members.get(sig.signer)
            if signer is None or not self.keystore.verify(
                    sig, msg.Chkpt.payload_of(
                        seqno=proof.seqno, view=proof.view,
                        state_digest=proof.state_digest, sender=signer)):
                return False
            signers.add(signer)
        return len(signers) >= self.config.t + 1

    def _install_checkpoint(self,
                            proof: Optional[msg.CheckpointProof]) -> bool:
        """Adopt a stable checkpoint newer than ours (LAZYCHK, FETCH-REPLY
        and NEW-VIEW all land here): verify the proof, restore from its
        snapshot only if it is ahead of our execution horizon, and
        truncate both logs either way -- this is what garbage-collects a
        replica that takes no part in checkpointing (a passive one kept up
        to date by lazy replication).  A proof that does not verify changes
        nothing.  False only for an unverifiable proof ahead of us."""
        stable = self.stable_checkpoint
        if proof is None \
                or (stable is not None and proof.seqno <= stable.seqno):
            return True
        if not self._checkpoint_proof_valid(proof):
            return proof.seqno <= self.ex
        self.restore_to(proof.seqno, proof.snapshot)
        self.stable_checkpoint = proof
        self.commit_log.truncate_to(proof.seqno)
        self.prepare_log.truncate_to(proof.seqno)
        return True

    def retained(self) -> Dict[str, int]:
        return {**super().retained(), "prepare_log": len(self.prepare_log)}

    # ==================================================================
    # Lazy replication -- Section 4.5.2
    # ==================================================================
    def _lazy_replicate(self, entry: CommitEntry) -> None:
        if not self.config.use_lazy_replication:
            return
        passive = self.groups.passive(self.view)
        if not passive:
            return
        if self.config.t == 1:
            targets = passive
        else:
            followers = self.groups.followers(self.view)
            index = followers.index(self.replica_id) \
                if self.replica_id in followers else 0
            targets = (passive[index % len(passive)],)
        lazy = msg.LazyCommit(self.view, entry.seqno, entry)
        self.multicast_authenticated(
            [self.replica_name(target) for target in targets], lazy,
            size_bytes=entry.batch.size_bytes)

    def _on_lazy_commit(self, src: str, m: msg.LazyCommit) -> None:
        # A passive replica that entered a view it is not active in never
        # receives the NEW-VIEW; lazy traffic at or above that view is its
        # evidence that the change completed.
        if (m.view >= self.view and self.in_view_change
                and not self.groups.is_active(self.view, self.replica_id)):
            self.in_view_change = False
            self._vc_retx_timer.stop()
        # Lazy traffic from a newer view tells a (recovered) passive
        # replica that a view change completed while it was away: adopt
        # the view number so later suspicions reference the right view.
        if (m.view > self.view and not self.in_view_change
                and not self.groups.is_active(m.view, self.replica_id)):
            self.view = m.view
        if m.seqno in self.commit_log or m.seqno <= self.ex:
            return
        self.commit_log.put(m.seqno, m.entry)
        self.execute_ready()
        if self.ex + 1 < m.seqno:
            # A hole below this entry: some lazy messages were lost while
            # we were down.  Retrieve the missing state (Section 4.5.2).
            self._fetch_missing(self.ex + 1, m.seqno - 1)

    def _fetch_missing(self, from_seqno: int, to_seqno: int) -> None:
        if self._fetch_pending:
            return
        self._fetch_pending = True
        request = msg.FetchEntries(from_seqno, to_seqno, self.replica_id)
        self.multicast_authenticated(
            [name for name in self._active_names() if name != self.name],
            request, size_bytes=48)
        # Allow a re-fetch if the reply is lost.
        self.after(2 * self.config.delta_ms, self._clear_fetch_pending)

    def _clear_fetch_pending(self) -> None:
        self._fetch_pending = False

    def _on_fetch(self, src: str, m: msg.FetchEntries) -> None:
        entries = []
        for seqno in range(m.from_seqno, m.to_seqno + 1):
            entry = self.commit_log.get(seqno)
            if entry is not None:
                entries.append(entry)
        reply = msg.FetchReply(tuple(entries), self.stable_checkpoint)
        size = sum(e.batch.size_bytes for e in entries) + 64
        self.send_authenticated(src, reply, size_bytes=size)

    def _on_fetch_reply(self, src: str, m: msg.FetchReply) -> None:
        self._fetch_pending = False
        self._install_checkpoint(m.checkpoint)
        for entry in m.entries:
            if entry.seqno > self.ex and entry.seqno not in self.commit_log:
                self.commit_log.put(entry.seqno, entry)
        self.execute_ready()

    # ==================================================================
    # Request retransmission -- Algorithm 4
    # ==================================================================
    def _on_resend(self, src: str, m: msg.ReSend) -> None:
        if self.in_view_change:
            # The request cannot commit until the view change finishes;
            # buffer the retransmission and replay it in the new view.
            self._buffered_resends.append(m)
            return
        if not self.is_active:
            return
        request = m.request
        if not self._verify_request(request):
            return
        if self.cached_reply(request.client, request.timestamp) is not None:
            # Already executed: re-answer immediately with signed replies.
            self._start_retransmission(request, already_executed=True)
            return
        if not self.is_primary:
            self.send_authenticated(
                self.replica_name(self.groups.primary(self.view)),
                msg.Replicate(request), size_bytes=request.size_bytes)
        else:
            self._on_replicate(src, msg.Replicate(request))
        self._start_retransmission(request, already_executed=False)

    def _start_retransmission(self, request: Request,
                              already_executed: bool) -> None:
        state = self._retransmissions.get(request.rid)
        if state is None:
            state = _RetransmissionState(request=request)
            state.timer = Timer(self, lambda rid=request.rid:
                                self._on_retransmission_timeout(rid),
                                "timer_req")
            self._retransmissions[request.rid] = state
        if state.done:
            return
        if state.timer is not None and not state.timer.armed:
            # The retransmitted request must commit within roughly one view
            # change (bounded by the 2-Delta collection phase) plus a round
            # of normal operation.
            state.timer.start(2 * self.config.delta_ms
                              + 8 * self.config.batch_timeout_ms)
        if already_executed:
            self._emit_signed_reply_share(request)

    def _emit_signed_reply_share(self, request: Request) -> None:
        cached = self.cached_reply(request.client, request.timestamp)
        if cached is None:
            return
        if cached.timestamp > request.timestamp:
            # The client already committed this request and moved on; the
            # retransmission is settled, not a liveness problem.
            self._settle_retransmission(request.rid)
            return
        share = msg.SignedReplyShare.signed(
            self.sign, view=self.view, seqno=cached.seqno,
            timestamp=cached.timestamp, client=cached.client,
            reply_digest=cached.result_digest, result=cached.result,
            sender=self.replica_id)
        self._fanout_with_self(
            self._active_names(), share, 96,
            lambda: self._on_signed_reply_share(self.name, share))

    def _on_signed_reply_share(self, src: str,
                               m: msg.SignedReplyShare) -> None:
        rid = (m.client, m.timestamp)
        state = self._retransmissions.get(rid)
        if state is None:
            # A peer is collecting signed replies for this request
            # (Algorithm 4 line 7: every active replica is asked to sign):
            # join in, contributing our own share once we have executed it.
            if self.cached_reply(m.client, m.timestamp) is None:
                return  # not executed here yet; our share will follow
            placeholder = Request(op=None, timestamp=m.timestamp,
                                  client=m.client)
            self._start_retransmission(placeholder, already_executed=True)
            state = self._retransmissions.get(rid)
            if state is None:
                return
        if state.done:
            return
        # Shares are filed under the sender they name, so that must be
        # who signed: one replica may not vote under several names.
        if not msg.verify_signed(self, m):
            return
        state.shares[m.sender] = m
        matching = [s for s in state.shares.values()
                    if (s.seqno, s.reply_digest) == (m.seqno, m.reply_digest)]
        if len(matching) >= self.config.t + 1:
            state.done = True
            if state.timer is not None:
                state.timer.stop()
            bundle = msg.SignedReplies(
                view=self.view,
                shares=tuple(sorted(matching, key=lambda s: s.sender)
                             [: self.config.t + 1]))
            self.send_authenticated(f"c{m.client}", bundle, size_bytes=256)

    def _settle_retransmission(self, rid: tuple) -> None:
        """Mark a retransmission as resolved and disarm its timer."""
        state = self._retransmissions.get(rid)
        if state is not None:
            state.done = True
            if state.timer is not None:
                state.timer.stop()

    def _on_retransmission_timeout(self, rid: tuple) -> None:
        state = self._retransmissions.get(rid)
        if state is None or state.done:
            return
        client, timestamp = rid
        cached = self.cached_reply(client, timestamp)
        if cached is not None and cached.timestamp > timestamp:
            # The client committed this request and moved past it: settled.
            self._settle_retransmission(rid)
            return
        if cached is not None and state.retries == 0:
            # We executed the request but the signed-reply quorum has not
            # formed (a peer may have missed the RE-SEND or a share was
            # lost).  Retry the collection once before suspecting; the
            # share exchange is a single active-to-active round trip, so
            # one Delta bounds it.
            state.retries += 1
            self._emit_signed_reply_share(state.request)
            if state.timer is not None:
                state.timer.start(self.config.delta_ms)
            return
        # Algorithm 4 lines 8-10: suspect the view and tell the client.
        view = self.view
        self.suspect_view(view)
        # Signed straight from the keystore: this copy for the client has
        # never been charged to the modelled CPU.
        suspect = msg.Suspect.signed(
            partial(self.keystore.sign, self.principal), view=view,
            sender=self.replica_id)
        self.send_authenticated(f"c{state.request.client}", suspect,
                                size_bytes=48)

    # ==================================================================
    # Fault accusations (Algorithm 6 lines 17-18)
    # ==================================================================
    def _on_fault_accusation(self, src: str, m: msg.FaultAccusation) -> None:
        if m.accused in self.detected_faulty:
            return
        self.detected_faulty.add(m.accused)
        self.multicast_authenticated(
            [n for n in self.all_replica_names()
             if n != self.name and n != src],
            m, size_bytes=256)

    def broadcast_accusation(self, accusation: msg.FaultAccusation) -> None:
        """Broadcast a fault-detection accusation to every replica."""
        self.detected_faulty.add(accusation.accused)
        self.multicast_authenticated(self.other_replica_names(), accusation,
                                     size_bytes=256)

    # ==================================================================
    # Crash / recovery
    # ==================================================================
    def recover(self) -> None:
        """Recover with durable protocol state.

        We model replicas with synchronously persisted logs and application
        state (the strongest practical recovery discipline): ``view``,
        ``sn``, ``ex``, both logs, and the app survive; volatile vote /
        view-change buffers do not.
        """
        self._crashed = False  # Process.recover without the app reset
        self._commit_votes.clear()
        self._pending_prepares.clear()
        self.sequencer.pending.clear()
        self._retransmissions.clear()
        # A recovering replica cannot tell whether its view is stale; it
        # rejoins and relies on suspect/view-change traffic to catch up.
        self.in_view_change = False
