"""Speculative PBFT replica (Figure 6a).

The paper uses "a speculative variant of [PBFT] that relies on a 2-phase
common-case commit protocol across only 2t + 1 replicas" out of the 3t + 1
total; "the remaining t replicas are not involved in the common case"
(Section 5.1.2).

Common case:

1. client -> primary: request;
2. primary -> the 2t other *active* replicas: ``PRE-PREPARE(sn, batch)``;
3. every active replica -> every active replica: ``COMMIT(sn, D(batch))``;
4. an active replica completes the slot on 2t + 1 matching commits
   (including its own) and replies to the client;
5. the client commits on t + 1 matching replies.

Authentication is MAC-based, as in PBFT.

View change: the active set of view ``v`` is the 2t + 1 replicas starting
at the primary ``v mod n``, so changing views rotates both the primary and
the common-case quorum.  A replica that suspects the primary broadcasts a
``VIEW-CHANGE`` carrying its committed entries and its *prepared
certificates* (slots with a PRE-PREPARE but not yet 2t + 1 commits); the
new primary installs the view on a 2t + 1 quorum of these, adopts the
merged committed prefix, re-proposes the prepared-but-uncommitted slots in
the new view, and announces it with ``NEW-VIEW`` (which doubles as a
catch-up vehicle for replicas entering the active set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.crypto.primitives import Digest
from repro.protocols.base import register_modeled
from repro.protocols.campaign import CampaignReplica, NewView
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch


@register_modeled
@dataclass(frozen=True)
class PrePrepare:
    """Primary -> active replicas: speculative ordering of a batch."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest


@register_modeled
@dataclass(frozen=True)
class CommitMsg:
    """Active replica -> active replicas: second-phase vote."""

    view: int
    seqno: int
    batch_digest: Digest
    sender: int


@register_modeled
@dataclass(frozen=True)
class ViewChange:
    """Suspecting replica -> all: recovery state for ``view``.

    ``committed`` is the replica's commit-log suffix; ``prepared`` carries
    its prepared certificates -- slots it holds a PRE-PREPARE for that have
    not yet gathered 2t + 1 commits.
    """

    view: int
    sender: int
    executed_upto: int
    committed: Tuple[Tuple[int, Batch], ...]
    prepared: Tuple[Tuple[int, Digest, Batch], ...]


class PbftReplica(CampaignReplica):
    """One replica of the speculative PBFT deployment (n = 3t + 1)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._batches: Dict[int, Batch] = {}
        # Votes are keyed by (seqno, digest): commits that outrun their
        # PRE-PREPARE must not pool with votes for a different batch at
        # the same slot.
        self._votes: Dict[Tuple[int, Digest], Set[int]] = {}
        self._digests: Dict[int, Digest] = {}
        self._enter_active_set()
        self._handlers.update({
            PrePrepare: self._on_pre_prepare,
            CommitMsg: self._on_commit,
            ViewChange: self.on_view_change_msg,
            NewView: self._on_new_view,
        })

    # -- roles ------------------------------------------------------------
    def _enter_active_set(self) -> None:
        """Work out the current view's common-case quorum once: the hot
        handlers ask per delivered message."""
        active = self.active_ids()
        self.is_active = self.replica_id in active
        self._active_names = tuple(f"r{a}" for a in active)
        self._active_peers = tuple(name for name in self._active_names
                                   if name != self.name)

    def active_ids(self, view: Optional[int] = None) -> List[int]:
        """The 2t + 1 replicas involved in the common case of ``view``
        (default: the current one): the primary and its 2t successors."""
        assert self.config.n is not None
        v = self.view if view is None else view
        leader = v % self.config.n
        return [(leader + i) % self.config.n
                for i in range(2 * self.config.t + 1)]

    def propose_batch(self, seqno: int, batch: Batch) -> None:
        digest = self.batch_digest(batch)
        self._batches[seqno] = batch
        self._digests[seqno] = digest
        pre_prepare = PrePrepare(self.view, seqno, batch, digest)
        self.multicast_authenticated(self._active_peers, pre_prepare,
                                     size_bytes=batch.size_bytes)
        self._vote(seqno, digest)

    def _on_pre_prepare(self, src: str, m: PrePrepare) -> None:
        self.follow_proposer(src, m.view)
        if m.view != self.view or not self.is_active or self.is_leader \
                or self.campaigning:
            return
        self.cpu.charge_mac(m.batch.size_bytes)
        self._batches[m.seqno] = m.batch
        self._digests[m.seqno] = m.batch_digest
        self._vote(m.seqno, m.batch_digest)

    def _vote(self, seqno: int, digest: Digest) -> None:
        vote = CommitMsg(self.view, seqno, digest, self.replica_id)
        # Our own vote is recorded at this replica's position in the
        # active list (see ReplicaBase._fanout_with_self).
        self._fanout_with_self(self._active_names, vote, 48,
                               lambda: self._record_vote(vote))

    def _on_commit(self, src: str, m: CommitMsg) -> None:
        # Votes from views ahead of ours are kept: they are keyed by
        # digest, so they can only ever complete the identical batch.
        if m.view < self.view or not self.is_active:
            return
        self.cpu.charge_mac(48)
        self._record_vote(m)

    def _record_vote(self, m: CommitMsg) -> None:
        votes = self._votes.setdefault((m.seqno, m.batch_digest), set())
        votes.add(m.sender)
        self._maybe_commit(m.seqno)

    def _maybe_commit(self, seqno: int) -> None:
        """Complete a slot once the PRE-PREPARE fixed its digest and that
        digest holds 2t + 1 votes."""
        digest = self._digests.get(seqno)
        if digest is None:
            return  # votes outran the pre-prepare; re-checked on arrival
        votes = self._votes.get((seqno, digest), ())
        if len(votes) < 2 * self.config.t + 1 \
                or seqno not in self._batches:
            return
        batch = self._batches.pop(seqno)
        self._digests.pop(seqno, None)
        for key in [k for k in self._votes if k[0] == seqno]:
            del self._votes[key]
        self.commit_batch(seqno, batch)

    def after_execute(self, seqno: int, entry: CommitEntry,
                      results: List[Any]) -> None:
        super().after_execute(seqno, entry, results)
        # Every active replica replies; the client needs t + 1 matching.
        if self.is_active:
            self.reply_to_clients(seqno, entry.batch, results)

    # -- view change ------------------------------------------------------
    def on_enter_view(self, view: int) -> None:
        # In-flight slots of the old view are either carried over by the
        # new primary's merge or (if uncommitted everywhere) re-driven by
        # client retransmission.  Votes are NOT dropped: they are keyed
        # by (seqno, digest), so retained ones can only ever complete the
        # identical batch -- and ahead-of-view COMMITs that overtook the
        # new primary's first PRE-PREPARE (kept by `_on_commit`) must
        # survive this transition or the slot could lose its quorum for
        # good.  Only vote sets for slots already executed are pruned.
        self._votes = {key: votes for key, votes in self._votes.items()
                       if key[0] > self.ex}
        self._batches.clear()
        self._digests.clear()
        self._enter_active_set()

    def make_view_change(self, target: int) -> ViewChange:
        committed = tuple((sn, entry.batch)
                          for sn, entry in self.commit_log.items())
        prepared = tuple((sn, self._digests[sn], self._batches[sn])
                         for sn in sorted(self._batches)
                         if sn in self._digests
                         and sn not in self.commit_log)
        return ViewChange(target, self.replica_id, self.ex, committed,
                          prepared)

    def view_change_size(self, message: ViewChange) -> int:
        return (sum(b.size_bytes + 16 for _, b in message.committed)
                + sum(b.size_bytes + 48 for _, _, b in message.prepared)
                + 128)

    def install_view(self, target: int, msgs: Dict[int, Any]) -> None:
        committed: Dict[int, Batch] = {}
        prepared: Dict[int, Batch] = {}
        freshest = self.replica_id
        freshest_ex = self.ex
        for m in msgs.values():
            for sn, batch in m.committed:
                committed[sn] = batch
            if m.executed_upto > freshest_ex:
                freshest, freshest_ex = m.sender, m.executed_upto
        for m in msgs.values():
            for sn, _digest, batch in m.prepared:
                if sn not in committed:
                    prepared.setdefault(sn, batch)
        # Adopt the merged committed prefix ourselves, and announce it.
        self.announce_view(committed, 128)
        # Continue numbering above everything the old views touched, and
        # re-propose the carried-over prepared certificates in this view.
        top = max(self.sn, self.ex,
                  max(committed, default=0), max(prepared, default=0))
        self.sn = top
        for sn in sorted(prepared):
            if sn <= self.ex or sn in self.commit_log:
                continue
            self.repropose(sn, prepared[sn])
        if freshest_ex > self.ex:
            self.request_sync(freshest)

    def _on_new_view(self, src: str, m: NewView) -> None:
        if not self.adopt_new_view(src, m, 128):
            return
        self.execute_ready()
        if m.executed_upto > self.ex:
            # The merge reaches past what we can replay: fetch the rest
            # (for an old passive joining the active set this is a state
            # transfer).
            self.request_sync(m.sender)
