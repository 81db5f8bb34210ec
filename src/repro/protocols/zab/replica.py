"""Zab replica: ZooKeeper's primary-backup atomic broadcast.

Zab [Junqueira et al., DSN'11] is crash-resilient with 2t + 1 replicas.
Common-case (broadcast) flow for a stable leader:

1. client -> leader: request;
2. leader -> **all 2t followers**: ``PROPOSAL(zxid, batch)``;
3. follower -> leader: ``ACK(zxid)`` after durably logging the proposal;
4. on a quorum of acks (majority incl. leader), the leader sends
   ``COMMITZAB(zxid)`` to all followers, delivers, and replies.

The detail driving Figure 10's result is step 2: the Zab leader ships every
request to *2t* followers, whereas the XPaxos primary ships to only *t*
followers, so with the leader's WAN uplink as the bottleneck XPaxos reaches
a higher peak throughput (Section 5.5).

Epoch change: a follower that suspects the leader broadcasts a
``FOLLOWER-INFO`` for the next epoch carrying its acked history (committed
entries plus acked-but-uncommitted proposals; the old leader contributes
its in-flight proposals the same way).  The prospective leader
(``epoch mod n``) collects a majority of these, keeps the entry acked in
the highest epoch per zxid -- the freshest acked prefix -- announces
``NEW-EPOCH``, and re-proposes that history in the new epoch, which both
re-commits anything the old quorum had accepted and synchronises lagging
followers.  An epoch is a view of the VIEW-CHANGE campaign
(``repro.protocols.campaign``): NEW-EPOCH is :class:`NewEpoch`, a
:class:`NewView` with no entries and a header of its own, adopted the same
way as PBFT's and Zyzzyva's, and the re-proposals go out through
``repropose``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, List, Set, Tuple

from repro.protocols.base import register_modeled
from repro.protocols.campaign import CampaignReplica, NewView
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch


@register_modeled
class Proposal:
    """Leader -> followers: a proposed transaction (zxid = seqno here)."""

    epoch: int
    seqno: int
    batch: Batch

    wire_bytes = property(attrgetter("batch.size_bytes"))


@register_modeled
class Ack:
    """Follower -> leader: proposal durably logged."""

    epoch: int
    seqno: int
    sender: int

    wire_bytes = 32


@register_modeled
class CommitZab:
    """Leader -> followers: deliver the transaction."""

    epoch: int
    seqno: int

    wire_bytes = 32


@register_modeled
class FollowerInfo:
    """Suspecting replica -> all: acked history for the target epoch.

    ``view`` is the target epoch; ``entries`` is ``(seqno, epoch acked
    in, batch)``, and the new leader keeps the highest-epoch entry per slot.
    """

    view: int
    sender: int
    executed_upto: int
    entries: Tuple[Tuple[int, int, Batch], ...]

    header_bytes = 128
    wire_bytes = property(lambda m: m.header_bytes + sum(
        b.size_bytes + 24 for _, _, b in m.entries))


@register_modeled
class NewEpoch(NewView):
    """New leader -> all: NEW-EPOCH, with no entries (re-proposed)."""

    header_bytes = wire_bytes = 64


class ZabReplica(CampaignReplica):
    """One replica of a Zab ensemble (n = 2t + 1)."""

    announcement_class = NewEpoch

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._proposed: Dict[int, Batch] = {}
        self._acks: Dict[int, Set[int]] = {}
        self._pending_commits: Dict[int, Batch] = {}
        # COMMITZAB can outrun its PROPOSAL across links: remember the
        # zxid and deliver as soon as the proposal arrives instead of
        # silently losing the commit.
        self._early_commits: Set[int] = set()
        self._handlers.update({
            Proposal: self._on_proposal,
            Ack: self._on_ack,
            CommitZab: self._on_commit,
            FollowerInfo: self.on_view_change_msg,
            NewEpoch: self._on_new_view,
        })

    def follower_ids(self) -> List[int]:
        """All 2t followers of the current epoch."""
        assert self.config.n is not None
        leader = self.leader_of(self.view)
        return [r for r in range(self.config.n) if r != leader]

    def propose_batch(self, seqno: int, batch: Batch) -> None:
        self._proposed[seqno] = batch
        self._acks[seqno] = {self.replica_id}
        proposal = Proposal(self.view, seqno, batch)
        # The leader ships the full payload to ALL followers -- the
        # bandwidth profile that caps Zab's peak throughput in Figure 10.
        followers = [f"r{f}" for f in self.follower_ids()]
        self.multicast_authenticated(followers, proposal)

    def _on_proposal(self, src: str, m: Proposal) -> None:
        self.follow_proposer(src, m.epoch)
        if m.epoch != self.view or self.is_leader or self.campaigning:
            return
        if not self.cpu.free:
            self.cpu.charge_mac(m.wire_bytes)
        self._pending_commits[m.seqno] = m.batch
        self.send_authenticated(f"r{self.leader_of(self.view)}",
                                Ack(m.epoch, m.seqno, self.replica_id))
        if m.seqno in self._early_commits:
            self._early_commits.discard(m.seqno)
            self._deliver(m.seqno)

    def _on_ack(self, src: str, m: Ack) -> None:
        if m.epoch != self.view or not self.is_leader:
            return
        if not self.cpu.free:
            self.cpu.charge_mac(m.wire_bytes)
        acks = self._acks.get(m.seqno)
        if acks is None:
            return
        acks.add(m.sender)
        if len(acks) >= self.config.quorum:
            batch = self._proposed.pop(m.seqno, None)
            self._acks.pop(m.seqno, None)
            if batch is None:
                return
            commit = CommitZab(self.view, m.seqno)
            followers = [f"r{f}" for f in self.follower_ids()]
            self.multicast_authenticated(followers, commit)
            self.commit_batch(m.seqno, batch)

    def _on_commit(self, src: str, m: CommitZab) -> None:
        if not self.cpu.free:
            self.cpu.charge_mac(m.wire_bytes)
        if m.seqno not in self._pending_commits:
            if m.seqno > self.ex and m.seqno not in self.commit_log:
                # The commit outran its proposal: buffer the zxid until
                # the proposal lands rather than losing it forever.
                self._early_commits.add(m.seqno)
            return
        self._deliver(m.seqno)

    def _deliver(self, seqno: int) -> None:
        batch = self._pending_commits.pop(seqno)
        self.commit_batch(seqno, batch)

    def after_execute(self, seqno: int, entry: CommitEntry,
                      results: List[Any]) -> None:
        super().after_execute(seqno, entry, results)
        # The leader answers; followers cache their replies so a later
        # leader answers retried requests from the cache instead of
        # re-ordering them.
        if self.is_leader:
            self.reply_to_clients(seqno, entry.batch, results)
        else:
            self.cache_unsent(seqno, entry.batch, results)

    # -- epoch change -----------------------------------------------------
    def on_enter_view(self, view: int) -> None:
        # In-flight proposals of the old epoch either had a quorum of acks
        # (then some majority member reported them and the new leader
        # re-proposes them) or are re-driven by client retransmission.
        self._proposed.clear()
        self._acks.clear()
        self._pending_commits.clear()
        self._early_commits.clear()

    def make_view_change(self, target: int) -> FollowerInfo:
        entries: Dict[int, Tuple[int, Batch]] = {}
        for sn, entry in self.commit_log.items():
            entries[sn] = (entry.view, entry.batch)
        for sn, batch in self._pending_commits.items():
            entries.setdefault(sn, (self.view, batch))
        for sn, batch in self._proposed.items():
            entries.setdefault(sn, (self.view, batch))
        return FollowerInfo(
            target, self.replica_id, self.ex,
            tuple((sn, epoch, batch)
                  for sn, (epoch, batch) in sorted(entries.items())))

    def install_view(self, target: int, msgs: Dict[int, Any]) -> None:
        # Freshest acked prefix: per slot, the entry acked in the highest
        # epoch wins (any committed slot was acked by a majority, which
        # intersects this majority of FOLLOWER-INFOs).
        merged: Dict[int, Tuple[int, Batch]] = {}
        for m in msgs.values():
            for sn, epoch, batch in m.entries:
                current = merged.get(sn)
                if current is None or epoch > current[0]:
                    merged[sn] = (epoch, batch)
        self.announce_view({})
        self.sn = max(self.sn, self.ex, max(merged, default=0))
        for sn in sorted(merged):
            if sn <= self.ex and sn in self.commit_log:
                continue
            _, batch = merged[sn]
            self.repropose(sn, batch)

    def _on_new_view(self, src: str, m: NewEpoch) -> None:
        if self.adopt_new_view(src, m) and m.executed_upto > self.ex:
            self.request_sync(m.sender)
