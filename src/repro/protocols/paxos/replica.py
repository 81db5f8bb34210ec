"""WAN-optimized multi-Paxos replica (Figure 6c).

The paper compares against "a very efficient WAN-optimized variant of
crash-tolerant Paxos inspired by [Megastore, MDCC, Spanner]" that
"requires 2t + 1 replicas to tolerate t faults, but involves t + 1 replicas
in the common case, i.e., just like XPaxos" (Section 5.1.2).

Common case for a stable leader (phase 2 only):

1. client -> leader: request;
2. leader -> the ``t`` common-case acceptors: ``ACCEPT(ballot, sn, batch)``;
3. acceptor -> leader: ``ACCEPTED(sn)``;
4. once all ``t`` acceptors answered (leader + t = majority of 2t+1), the
   leader commits, executes, replies to the client, and lazily propagates
   the decision to the remaining ``t`` replicas.

Leader failover (phase 1) is implemented so the baseline survives leader
crashes: a non-leader that sees client requests stall starts an election
timer; on expiry it advances the ballot, broadcasts ``NEW-BALLOT``, gathers
a majority of ``PROMISE`` messages carrying accepted entries, re-proposes
the merged log, and resumes the common case.

Who the ``t`` acceptors are: in view 0 the lowest ids after the leader
(the paper places them in the closest datacenters, which the site layout
reflects); for the winner of a ballot, ``t`` of the replicas whose PROMISE
made its majority.  A leader that ordered through the lowest ids whoever
it was would keep the crashed leader of view 0 as its acceptor, gather
``t`` acknowledgements for nothing until that replica came back, and be
voted out every retransmission timeout meanwhile: fail-over has to cost
one election, not the crashed replica's downtime.

What a replica keeps for phase 1: the values it accepted in the current
checkpoint window (``_accepted``, pruned where the base class truncates
the commit log), so a PROMISE -- and an election -- costs the window, not
the run's history; a leader elected from behind the windows it was shown
catches up by state transfer (``SyncRequest``), as after a crash.

Only MACs are used -- crash faults cannot forge messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.crypto.primitives import Digest
from repro.protocols.base import BaselineReplica, register_modeled
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch


@register_modeled
@dataclass(frozen=True)
class Accept:
    """Leader -> acceptor: order ``batch`` at ``seqno`` (phase 2a)."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest


@register_modeled
@dataclass(frozen=True)
class Accepted:
    """Acceptor -> leader: phase-2b acknowledgement."""

    view: int
    seqno: int
    batch_digest: Digest
    sender: int


@register_modeled
@dataclass(frozen=True)
class Learn:
    """Leader -> passive replicas: the decided batch (lazy propagation)."""

    view: int
    seqno: int
    batch: Batch


@register_modeled
@dataclass(frozen=True)
class NewBallot:
    """Prospective leader -> all: phase 1a for ballot ``view``."""

    view: int
    sender: int


@register_modeled
@dataclass(frozen=True)
class Promise:
    """Replica -> prospective leader: phase 1b.

    Carries the replica's accepted-but-possibly-undecided entries as
    ``(seqno, accepted_ballot, batch)`` tuples plus its execution horizon.
    """

    view: int
    sender: int
    entries: Tuple[Tuple[int, int, Batch], ...]
    executed_upto: int


class PaxosReplica(BaselineReplica):
    """One replica of the WAN-optimized Paxos deployment."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._acks: Dict[int, Set[int]] = {}
        self._proposed: Dict[int, Batch] = {}
        # Accepted-but-undecided state kept for failover re-proposal:
        # seqno -> (ballot, batch).
        self._accepted: Dict[int, Tuple[int, Batch]] = {}
        # Election state (the election timer itself lives in the base).
        self._promises: Dict[int, Promise] = {}
        self._pending_ballot: Optional[int] = None
        # Whom this replica orders through while it leads: the lowest ids
        # after itself -- for the leader of view 0 the paper's placement
        # (the closest datacenters in the site layout) -- until it wins a
        # ballot, from then on replicas that promised.
        assert self.config.n is not None
        self._acceptors: List[int] = [
            r for r in range(self.config.n)
            if r != self.replica_id][: self.config.t]
        self._handlers.update({
            Accept: self._on_accept,
            Accepted: self._on_accepted,
            Learn: self._on_learn,
            NewBallot: self._on_new_ballot,
            Promise: self._on_promise,
        })

    # -- roles ------------------------------------------------------------
    def common_case_acceptors(self) -> List[int]:
        """The ``t`` acceptors this replica contacts in the common case
        of a view it leads."""
        return self._acceptors

    def passive_ids(self) -> List[int]:
        """Replicas outside the common case (learn lazily)."""
        assert self.config.n is not None
        active = {self.replica_id, *self._acceptors}
        return [r for r in range(self.config.n) if r not in active]

    # -- phase 2 (common case) ---------------------------------------------
    def may_propose(self) -> bool:
        # A candidate adopts its ballot as ``view`` when it sends
        # NEW-BALLOT, which makes it leader of that view: it orders in it
        # only once a majority promised (phase 2 after phase 1).
        return self.is_leader and self._pending_ballot is None

    def propose_batch(self, seqno: int, batch: Batch) -> None:
        digest = self.batch_digest(batch)
        self._proposed[seqno] = batch
        self._acks[seqno] = set()
        # The leader accepts its own proposal (it is one of the majority
        # counted in ``_on_accepted``).  Recording it here means a later
        # ballot's merge re-proposes in-flight batches instead of losing
        # them -- their rids are already in the sequencer's seen set, so client
        # retransmissions alone could never resurrect them.
        self._accepted[seqno] = (self.view, batch)
        accept = Accept(self.view, seqno, batch, digest)
        acceptors = [f"r{a}" for a in self.common_case_acceptors()]
        self.multicast_authenticated(acceptors, accept,
                                     size_bytes=batch.size_bytes)

    def _on_accept(self, src: str, m: Accept) -> None:
        if m.view < self.view:
            return  # stale ballot
        if m.view > self.view:
            self.view = m.view  # adopt the higher ballot
        self.cpu.charge_mac(m.batch.size_bytes)
        self._accepted[m.seqno] = (m.view, m.batch)
        self._election_timer.stop()
        # Acceptors execute on accept: the stable leader's order is
        # authoritative in the common case.
        self.commit_batch(m.seqno, m.batch)
        self.send_authenticated(
            f"r{self.leader_of(self.view)}",
            Accepted(m.view, m.seqno, m.batch_digest, self.replica_id),
            size_bytes=48)

    def _on_accepted(self, src: str, m: Accepted) -> None:
        if m.view != self.view or not self.is_leader:
            return
        self.cpu.charge_mac(48)
        acks = self._acks.get(m.seqno)
        if acks is None:
            return
        acks.add(m.sender)
        if len(acks) >= self.config.t:  # leader + t = majority
            batch = self._proposed.pop(m.seqno, None)
            self._acks.pop(m.seqno, None)
            if batch is None:
                return
            self.commit_batch(m.seqno, batch)
            learn = Learn(self.view, m.seqno, batch)
            passives = [f"r{p}" for p in self.passive_ids()]
            self.multicast_authenticated(passives, learn,
                                         size_bytes=batch.size_bytes)

    def _on_learn(self, src: str, m: Learn) -> None:
        self.cpu.charge_mac(m.batch.size_bytes)
        self._accepted[m.seqno] = (m.view, m.batch)
        self.commit_batch(m.seqno, m.batch)

    def after_execute(self, seqno: int, entry: CommitEntry,
                      results: List[Any]) -> None:
        super().after_execute(seqno, entry, results)
        if seqno % self.config.checkpoint_period == 0:
            # The commit log was just truncated: an accepted value below
            # it is executed here, and a replica that still misses it is
            # brought up by state transfer, not by a later ballot's merge.
            low_water = self.commit_log.low_water
            for stale in [sn for sn in self._accepted if sn <= low_water]:
                del self._accepted[stale]
        # Only the leader answers clients (CFT: one reply suffices), but
        # every replica caches its replies for dedup and failover.
        if self.is_leader:
            self.reply_to_clients(seqno, entry.batch, results)
        else:
            self.cache_unsent(seqno, entry.batch, results)

    def on_enter_view(self, view: int) -> None:
        # Adopting a ballot someone else established (e.g. via a recovery
        # sync): drop in-flight proposals and any stale campaign of our
        # own -- winning it later would roll the view back.
        self._proposed.clear()
        self._acks.clear()
        if self._pending_ballot is not None and self._pending_ballot <= view:
            self._pending_ballot = None
            self._promises = {}

    # -- phase 1 (leader failover) -------------------------------------------
    def suspect_view(self, view: int) -> None:
        """The leader did not commit a retried request in time (or the
        fault injector scripted a suspicion): campaign for the next
        ballot whose leader is this replica."""
        if view < self.view:
            return
        assert self.config.n is not None
        ballot = self.view + 1
        while ballot % self.config.n != self.replica_id:
            ballot += 1
        self.elections_started += 1
        self._pending_ballot = ballot
        self._promises = {}
        message = NewBallot(ballot, self.replica_id)
        self._fanout_with_self(
            self.all_replica_names(), message, 32,
            lambda: self._on_new_ballot(self.name, message))
        # If the campaign stalls (e.g. competing ballots), try again.
        self._election_timer.start(2 * self.config.request_retransmit_ms)

    def _on_new_ballot(self, src: str, m: NewBallot) -> None:
        if m.view <= self.view and m.sender != self.replica_id:
            return  # stale campaign
        if m.view > self.view:
            self.view = m.view
            self.sequencer.stop_timer()
            self._proposed.clear()
            self._acks.clear()
            if m.sender != self.replica_id:
                # A fresher campaign is under way: abandon any stale one
                # of our own (winning it later would roll the view back)
                # and give the campaigner a grace period before we run
                # against it -- forwarding a stalled client request
                # re-arms the timer if the new leader fails to deliver.
                if self._pending_ballot is not None \
                        and m.view > self._pending_ballot:
                    self._pending_ballot = None
                # What queued here -- as a candidate or as the leader
                # this ballot deposes -- is the campaigner's to order.
                self.forward_queued()
                self._election_timer.stop()
        # Ship every retained accepted entry (one checkpoint window): the
        # new leader's merge picks the highest-ballot value per slot and
        # discards what every promiser already executed, so over-reporting
        # is safe and simplest.
        entries = tuple(
            (seqno, ballot, batch)
            for seqno, (ballot, batch) in sorted(self._accepted.items()))
        promise = Promise(m.view, self.replica_id, entries, self.ex)
        if m.sender == self.replica_id:
            self._on_promise(self.name, promise)
        else:
            self.send_authenticated(f"r{m.sender}", promise, size_bytes=256)

    def _on_promise(self, src: str, m: Promise) -> None:
        if self._pending_ballot is None or m.view != self._pending_ballot:
            return
        self._promises[m.sender] = m
        if len(self._promises) < self.config.quorum:
            return
        # Majority promised: become leader of the new ballot, ordering
        # through t of the replicas that just answered -- they are up, which
        # nothing says of the lowest ids.
        ballot = self._pending_ballot
        self._pending_ballot = None
        self.view = ballot
        self.view_changes_completed += 1
        self._election_timer.stop()
        promises, self._promises = self._promises, {}
        self._acceptors = sorted(
            p for p in promises if p != self.replica_id)[: self.config.t]
        # Merge: per slot, the entry accepted at the highest ballot wins.
        merged: Dict[int, Tuple[int, Batch]] = {}
        for promise in promises.values():
            for seqno, accepted_ballot, batch in promise.entries:
                current = merged.get(seqno)
                if current is None or accepted_ballot > current[0]:
                    merged[seqno] = (accepted_ballot, batch)
        # Re-propose the merged entries some promiser has yet to execute
        # (an acceptor of the old leader may hold slots nobody else was
        # told about), then resume normal operation; sequence numbering
        # continues after everything a promiser has accepted or executed.
        behind = min(p.executed_upto for p in promises.values())
        ahead = max(promises.values(), key=lambda p: p.executed_upto)
        self.sn = max(self.sn, self.ex, ahead.executed_upto,
                      max(merged, default=0))
        for seqno in sorted(merged):
            if seqno > behind:
                self.repropose(seqno, merged[seqno][1])
        if ahead.executed_upto > self.ex:
            # Promisers only report their current window: what lies below
            # it we fetch from the one furthest ahead.
            self.request_sync(ahead.sender)
        # Merged re-proposals are carried state, outside the pipeline
        # window; requests queued while campaigning flow through a flush.
        self.sequencer.carry_over()
        self.sequencer.kick()