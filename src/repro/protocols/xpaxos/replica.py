"""The XPaxos replica: the common case (Algorithms 1 and 2) and the five
machines it hands everything else to.

:class:`XPaxosReplica` is the core: roles, ordering on the configured
path -- the ``t = 1`` fast path (Algorithm 1, Figure 2b) or the general
one (Algorithm 2, Figure 2a), picked from ``config.t`` at construction --
execution, replies, and what survives a crash.  Each of
the paper's other algorithms is a component that is handed the replica,
owns the fields and timers only it uses, and registers its own message
classes in the replica's one ``_handlers`` table (dispatched by
``ReplicaBase.on_message``, as for every protocol): ``ViewChanger``
(suspicion, Algorithm 3, the hand-off to Algorithms 5-6), ``Checkpointer``
(Section 4.5.1), ``LazyReplicator`` (Section 4.5.2), ``Retransmitter``
(Algorithm 4) and ``ProgressWatch`` (a prepared slot that does not commit)
-- docs/execution.md, "Where each algorithm lives".

State the core keeps mirrors the pseudocode: ``view`` (``i``),
``prepare_log`` / ``commit_log`` (``PrepareLog`` / ``CommitLog``, sparse,
checkpoint-truncated), ``sn`` (highest sequence number prepared locally),
``ex`` (highest executed), and the stable checkpoint.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, List, Optional, Set

from repro.common.config import ClusterConfig
from repro.common.errors import ProtocolViolation
from repro.crypto.costs import CostModel
from repro.crypto.primitives import Digest, KeyStore, digest_of
from repro.net.network import Network
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.checkpoint import Checkpointer
from repro.protocols.xpaxos.groups import SynchronousGroups
from repro.protocols.xpaxos.lazy import LazyReplicator
from repro.protocols.xpaxos.progress import ProgressWatch
from repro.protocols.xpaxos.retransmission import Retransmitter
from repro.protocols.xpaxos.signed import verify_signed
from repro.protocols.xpaxos.view_change import ViewChanger
from repro.sim.core import Simulator
from repro.smr.app import StateMachine
from repro.smr.log import CommitEntry, PrepareEntry, PrepareLog
from repro.smr.messages import Batch, Request
from repro.smr.runtime import ReplicaBase


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
        self.stable_checkpoint: Optional[msg.CheckpointProof] = None
        self.in_view_change = False
        self.view_changes_completed = 0
        self.detected_faulty: Set[int] = set()
        #: Fault injection (repro.faults): rewrites outgoing VIEW-CHANGEs.
        self.byzantine: Optional[Any] = None
        # Per-slot state: the general path's votes, the t = 1 follower's
        # FastCommit until replies embed it, and the out-of-order buffer.
        self._commit_votes: Dict[int, Dict[int, msg.CommitVote]] = {}
        self._fast_commits_pending: Dict[int, msg.FastCommit] = {}
        self._pending_prepares: Dict[int, Any] = {}
        self._handlers.update({msg.Replicate: self._on_replicate})
        self._wire_ordering_path()
        # Each component adds the message classes it handles.
        self.checkpointer = Checkpointer(self)
        self.lazy = LazyReplicator(self)
        self.retransmitter = Retransmitter(self)
        self.progress = ProgressWatch(self)
        self.view_changer = ViewChanger(self)
        self.components += [self.checkpointer, self.lazy, self.retransmitter,
                            self.progress, self.view_changer]

    def _wire_ordering_path(self) -> None:
        """Only the configured ordering path is wired: the t = 1 pattern
        (FastPrepare / FastCommit) or the general one (Prepare /
        CommitVote); the other path's messages are unknown types here."""
        if self.config.t == 1:
            self.propose_batch = self._fast_propose
            self._accept_ordered = self._accept_fast_prepare
            self._handlers.update({msg.FastPrepare: self._on_prepare,
                                   msg.FastCommit: self._on_fast_commit})
        else:
            self.propose_batch = self._propose
            self._accept_ordered = self._accept_prepare
            self._handlers.update({msg.Prepare: self._on_prepare,
                                   msg.CommitVote: self._on_commit_vote})

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

    def _active_names(self) -> List[str]:
        return [self.replica_name(r) for r in self.groups.group(self.view)]

    def _passive_names(self) -> List[str]:
        return [self.replica_name(r) for r in self.groups.passive(self.view)]

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

    # -- general case (t >= 2) ------------------------------------------
    def _propose(self, seqno: int, batch: Batch) -> None:
        batch_digest = self._batch_digest(batch)
        prepare = msg.Prepare.signed(self.sign, view=self.view, seqno=seqno,
                                     batch=batch, batch_digest=batch_digest)
        entry = PrepareEntry(seqno, self.view, batch, prepare.primary_sig)
        self.prepare_log.put(seqno, entry)
        self.progress.prepared(seqno)
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
        if not verify_signed(self, m):
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
        self.progress.prepared(m.seqno)
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
        if not verify_signed(self, m):
            raise ProtocolViolation("bad follower signature on commit")
        self._record_commit_vote(m)

    def _record_commit_vote(self, vote: msg.CommitVote) -> None:
        """File a vote of this view's followers (ours, or one _on_commit_vote
        admitted); commit once the prepare entry and all t votes are in."""
        seqno = vote.seqno
        if seqno in self.commit_log or seqno <= self.ex:
            return  # a replayed vote: a committed slot keeps no table
        votes = self._commit_votes.setdefault(seqno, {})
        votes[vote.sender] = vote
        entry = self.prepare_log.get(seqno)
        if entry is None or len(votes) < self.config.t:
            return
        batch_digest = self._batch_digest(entry.batch)
        matching = [votes[s].sig for s in sorted(votes)
                    if votes[s].batch_digest == batch_digest]
        if len(matching) < self.config.t:
            return
        proof = (entry.primary_sig, *matching)
        self.commit_log.put(
            seqno, CommitEntry(seqno, entry.view, entry.batch, proof))
        self._commit_votes.pop(seqno, None)
        self.progress.committed(seqno)
        self.execute_ready()

    # -- fast path (t = 1) ------------------------------------------------
    def _fast_propose(self, seqno: int, batch: Batch) -> None:
        batch_digest = self._batch_digest(batch)
        fast = msg.FastPrepare.signed(
            self.sign, view=self.view, seqno=seqno, batch=batch,
            batch_digest=batch_digest)
        entry = PrepareEntry(seqno, self.view, batch, fast.m0)
        self.prepare_log.put(seqno, entry)
        self.progress.prepared(seqno)
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
        self.lazy.replicate(entry)
        self.checkpointer.maybe_checkpoint(m.seqno)

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
        if not verify_signed(self, m):
            raise ProtocolViolation("bad m1 signature")
        if m.seqno in self.commit_log:
            return
        commit_entry = CommitEntry(m.seqno, m.view, entry.batch,
                                   (entry.primary_sig, m.m1))
        self.commit_log.put(m.seqno, commit_entry)
        self._fast_commits_pending[m.seqno] = m
        self.progress.committed(m.seqno)
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
            self.lazy.replicate(entry)
        self.checkpointer.maybe_checkpoint(seqno)

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
        if self.retransmitter.waiting:
            for request in batch.requests:
                self.retransmitter.executed(request)

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
        waiting = self.retransmitter.waiting
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
            if waiting:
                self.retransmitter.executed(request)
            self.send_authenticated(f"c{request.client}", reply, size)

    def _batch_digest(self, batch: Batch) -> Digest:
        self.cpu.charge_digest(batch.size_bytes)
        return msg.batch_digest_of(batch)

    # ==================================================================
    # The core's side of a view change, a crash, and the memory budget
    # ==================================================================
    def suspect_view(self, view: int, silent: Collection[int] = ()) -> None:
        """Initiate a view change for ``view`` (``ViewChanger``)."""
        self.view_changer.suspect_view(view, silent)

    def voters(self, seqno: int) -> Collection[int]:
        """The followers whose vote for ``seqno`` this replica holds."""
        return self._commit_votes.get(seqno, {}).keys()

    def leave_view(self, new_view: int) -> None:
        """Stop ordering: ``new_view`` is being installed."""
        self.view = new_view
        self.in_view_change = True
        self.sequencer.stop_timer()
        self._pending_prepares.clear()
        self._commit_votes.clear()
        self.progress.view_left()
        self.retransmitter.view_left()

    def start_view(self) -> None:
        """The view is installed: resume ordering in it."""
        self.in_view_change = False
        self.view_changes_completed += 1
        # Drain prepares for this view that arrived while we were still
        # installing it (buffered by _on_prepare).
        if self.is_follower:
            primary_name = self.replica_name(self.groups.primary(self.view))
            buffered = [p for _, p in sorted(self._pending_prepares.items())]
            self._pending_prepares.clear()
            for prepared in buffered:
                self.sim.call_soon(
                    lambda p=prepared: self._on_prepare(primary_name, p))
        self.retransmitter.view_installed()
        # Start afresh in the new view.
        if self.is_primary:
            self.sequencer.reset_seen(
                req.rid for _, e in self.commit_log.items()
                for req in e.batch)
            # Slots prepared in the old view and re-adopted here are
            # carried state, outside the new view's pipeline window.
            self.sequencer.carry_over()
            self.sequencer.kick()

    def recover(self) -> None:
        """Besides the durable state (both logs and the stable
        checkpoint as well) and what each component keeps, the core
        forgets its per-slot votes and buffered prepares."""
        super().recover()
        self._commit_votes.clear()
        self._pending_prepares.clear()
        # A recovering replica cannot tell whether its view is stale; it
        # rejoins and relies on suspect/view-change traffic to catch up.
        self.in_view_change = False

    def retained(self) -> Dict[str, int]:
        return {**super().retained(),
                "prepare_log": len(self.prepare_log),
                "view_change_entries": self.view_changer.held_entries(),
                "retransmissions": len(self.retransmitter.waiting)}
