"""Shared scaffolding for the leader-based baseline protocols.

All four baselines (WAN-Paxos, speculative PBFT, Zyzzyva, Zab) share the
same skeleton: a leader batches client requests (B = 20, Section 5.1.2),
assigns sequence numbers, drives one protocol-specific ordering exchange,
and replicas execute committed batches in order and reply to clients.  This
module factors that skeleton so each baseline module only implements its
ordering exchange -- which is exactly what differentiates them in the
paper's Figure 6.

The baselines authenticate with MACs only (no digital signatures), which is
what makes their CPU profile differ from XPaxos in Figure 8.

Leader change
-------------

* **Suspicion** (here): a non-leader that receives a client's
  retransmitted request forwards it to the leader it believes in and arms
  an election timer (:meth:`BaselineReplica.arm_suspicion`); executing a
  new batch disarms it, expiry calls ``suspect_view``.
* **Election**: PBFT, Zyzzyva and Zab run the VIEW-CHANGE campaign of
  :mod:`repro.protocols.campaign`; Paxos runs its own ballots.  Either
  way a new view is adopted through :meth:`BaselineReplica.enter_view`,
  and a slot carried over from an earlier view goes out through
  :meth:`BaselineReplica.repropose`, which claims its requests from the
  sequencer so the clients' re-sends are not ordered twice.
* **Catch-up** (here): a recovering replica multicasts a
  :class:`SyncRequest`; peers answer with their committed suffix and,
  when the requester is too far behind to replay the log, an application
  snapshot (:class:`SyncReply`).  The same messages serve replicas that
  learn from a new view that their horizon is stale.

Messages arrive through the one handler table of
:class:`~repro.smr.runtime.ReplicaBase`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.common.config import ClusterConfig
from repro.crypto.authenticators import MODELED_MAC, register
from repro.crypto.costs import CostModel
from repro.crypto.primitives import Digest, KeyStore, digest_each
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Timer
from repro.smr.app import StateMachine
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch, Request
from repro.smr.runtime import ReplicaBase, SmrClientBase


#: Class decorator binding a baseline message class to the modelled
#: channel-MAC policy (CPU + wire bytes accounted at the transport, no
#: real tokens).
register_modeled = register(MODELED_MAC)

# Each wire class states its modelled size, ``wire_bytes``, where it is
# defined (docs/execution.md, "Modelled sizes"); a wrapped request's or
# batch's is read through a C-level ``attrgetter``, with no Python call.


@register_modeled
class ClientRequestMsg:
    """Client -> leader request envelope (MAC-authenticated channel)."""

    request: Request

    wire_bytes = property(attrgetter("request.size_bytes"))


@register_modeled
class GenericReply:
    """Replica -> client reply, protocol-agnostic."""

    replica: int
    view: int
    seqno: int
    timestamp: int
    client: int
    result: Any
    result_digest: Digest
    wire_bytes: int = 0


@register_modeled
class SyncRequest:
    """Recovering/lagging replica -> peers: send me what I missed."""

    sender: int
    executed_upto: int

    wire_bytes = 16


@register_modeled
class SyncReply:
    """Peer -> recovering replica: committed suffix plus, when the
    requester cannot replay the log contiguously, a state snapshot."""

    sender: int
    view: int
    executed_upto: int
    snapshot: Any
    entries: Tuple[Tuple[int, Batch], ...]

    header_bytes = 64
    #: The header and the batches; the snapshot is not counted.
    wire_bytes = property(lambda m: m.header_bytes + sum(
        batch.size_bytes for _, batch in m.entries))


class BaselineReplica(ReplicaBase):
    """Skeleton replica: batching at the leader + ordered execution.

    Subclasses implement :meth:`propose_batch` (leader side) and
    ``suspect_view`` (their election), and register their own message
    handlers in ``_handlers``, calling :meth:`commit_batch` when a slot
    becomes stable and :meth:`execute_ready` afterwards.
    """

    def __init__(self, replica_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 app_factory: Callable[[], StateMachine], site: str,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(replica_id, config, sim, network, keystore,
                         app_factory, site, cost_model)
        self._handlers.update({
            ClientRequestMsg: self._on_client_request,
            SyncRequest: self._on_sync_request,
            SyncReply: self._on_sync_reply,
        })
        self._election_timer = Timer(self, self._on_election_timeout,
                                     "election")
        self.elections_started = 0
        self.view_changes_completed = 0

    # -- role -----------------------------------------------------------
    def leader_of(self, view: int) -> int:
        """The leader of ``view``: round robin over all replicas."""
        assert self.config.n is not None
        return view % self.config.n

    @property
    def leader_id(self) -> int:
        """The leader of the current view."""
        return self.leader_of(self.view)

    @property
    def is_leader(self) -> bool:
        """Is this replica the leader of the current view?"""
        return self.replica_id == self.leader_of(self.view)

    # -- batching at the leader ------------------------------------------
    def _on_client_request(self, src: str, m: ClientRequestMsg) -> None:
        """Entry point for client requests: answered from the reply cache
        if already executed; otherwise the leader batches it, and a
        non-leader forwards it to the leader and arms the election timer
        (the leader may be down)."""
        request = m.request
        size = request.size_bytes
        if size.__class__ is not int or size < 0:
            return  # a size no client sends: no batch may carry it
        if self.answer_from_cache(request):
            return
        if self.is_leader:
            self.sequencer.offer(request)
            return
        self.send_authenticated(f"r{self.leader_id}", m)
        self.arm_suspicion()

    def may_propose(self) -> bool:
        """May this replica cut batches right now (sequencer hook)?"""
        return self.is_leader

    def propose_batch(self, seqno: int, batch: Batch) -> None:
        """Protocol-specific ordering exchange. Subclasses implement."""
        raise NotImplementedError

    def repropose(self, seqno: int, batch: Batch) -> None:
        """Order a batch carried over from an earlier view, first claiming
        its requests from the sequencer (seen, and out of the queue): a
        re-send queued while we campaigned must not be ordered again."""
        sequencer = self.sequencer
        rids = batch.rids
        sequencer.seen.update(rids)
        if sequencer.pending:
            claimed = set(rids)
            sequencer.pending = [request for request in sequencer.pending
                                 if request.rid not in claimed]
        self.propose_batch(seqno, batch)

    # -- commit and execution ---------------------------------------------
    def commit_batch(self, seqno: int, batch: Batch) -> None:
        """Record a stable slot and execute anything now contiguous."""
        if seqno not in self.commit_log:
            self.commit_log.put(
                seqno, CommitEntry(seqno, self.view, batch, ()))
        self.execute_ready()

    def log_entries(self, entries: Iterable[Tuple[int, Batch]],
                    view: int) -> None:
        """Log each ``(seqno, batch)`` above ``ex`` not logged yet, as
        decided in ``view``; the caller executes."""
        for sn, batch in entries:
            if sn > self.ex and sn not in self.commit_log:
                self.commit_log.put(sn, CommitEntry(sn, view, batch, ()))

    def after_execute(self, seqno: int, entry: CommitEntry,
                      results: List[Any]) -> None:
        """Execution progress means the current leader is doing its job:
        call off any pending election; every ``checkpoint_period`` slots
        drop the log below the previous period.  Subclasses extend this
        with their reply rule (:meth:`reply_to_clients` where the replica
        answers, :meth:`cache_unsent` where it only remembers)."""
        self._election_timer.stop()
        if seqno % self.config.checkpoint_period == 0:
            self.commit_log.truncate_to(
                seqno - self.config.checkpoint_period)

    def make_reply(self, view: int, seqno: int, request: Request,
                   result: Any, result_digest: Digest,
                   wire_bytes: int = 0) -> GenericReply:
        """The one place a :class:`GenericReply` is built.  A reply cached
        without being sent claims no wire bytes (``wire_bytes`` 0), also
        when a later leader re-sends it from the cache."""
        return GenericReply(self.replica_id, view, seqno, request.timestamp,
                            request.client, result, result_digest,
                            wire_bytes)

    def reply_to_clients(self, seqno: int, batch: Batch,
                         results: List[Any]) -> None:
        """Answer a slot's clients: per request, cache the reply (dedup
        and failover); then ship them MAC-authenticated, in one send.  A
        replica that executes without answering calls
        :meth:`cache_unsent` instead."""
        view = self.view
        last_reply = self._last_reply
        replies = []
        for request, result, digest in zip(batch.requests, results,
                                           digest_each(results)):
            # 64 nominal reply bytes: keeps the sender's modeled MAC cost
            # at the seed's charge_mac(64) (the policy charges over
            # wire_bytes) and puts an honest reply size on the wire.
            reply = self.make_reply(view, seqno, request, result, digest, 64)
            last_reply[request.client] = reply
            replies.append((f"c{request.client}", reply))
        self.send(replies)

    def batch_digest(self, batch: Batch) -> Digest:
        """Digest over the signed request bodies of a batch, charging CPU."""
        self.cpu.charge_digest(batch.size_bytes)
        return batch.bodies_digest

    # -- leader change ----------------------------------------------------
    def arm_suspicion(self) -> None:
        """Give the leader one retransmission timeout to execute
        something, unless the election timer already runs."""
        if not self._election_timer.armed:
            self._election_timer.start(self.config.request_retransmit_ms)

    def _on_election_timeout(self) -> None:
        self.suspect_view(self.view)

    def on_enter_view(self, view: int) -> None:
        """Hook: drop per-view in-flight ordering state. Default no-op."""

    def enter_view(self, view: int) -> None:
        """Adopt a view whose leader already installed it."""
        if view <= self.view:
            return
        self.view = view
        self.view_changes_completed += 1
        self._election_timer.stop()
        self.sequencer.stop_timer()
        if not self.is_leader:
            self.forward_queued()
        self.on_enter_view(view)

    def forward_queued(self) -> None:
        """Requests batched while we believed ourselves leader belong to
        the current leader: forward them, un-marked so retransmissions
        are not dropped here as duplicates."""
        for request in self.sequencer.drain():
            self.send_authenticated(f"r{self.leader_id}",
                                    ClientRequestMsg(request))

    # -- recovery and catch-up --------------------------------------------
    def recover(self) -> None:
        """Rejoin after a crash (what it forgets: ``ReplicaBase.recover``)
        and ask the peers for the current view and the committed suffix
        we missed."""
        super().recover()
        self.multicast_authenticated(self.other_replica_names(),
                                     SyncRequest(self.replica_id, self.ex))

    def request_sync(self, peer: int) -> None:
        """Ask one peer for the committed suffix above our horizon."""
        self.send_authenticated(f"r{peer}",
                                SyncRequest(self.replica_id, self.ex))

    def _on_sync_request(self, src: str, m: SyncRequest) -> None:
        entries = tuple((sn, entry.batch)
                        for sn, entry in self.commit_log.items()
                        if sn > m.executed_upto)
        snapshot = self.app.snapshot() if self.ex > m.executed_upto else None
        self.send_authenticated(
            f"r{m.sender}",
            SyncReply(self.replica_id, self.view, self.ex, snapshot,
                      entries))

    def _on_sync_reply(self, src: str, m: SyncReply) -> None:
        if not self.cpu.free:
            self.cpu.charge_mac(m.header_bytes)
        if m.view > self.view:
            self.enter_view(m.view)
        if m.executed_upto > self.ex and m.snapshot is not None:
            held = {sn for sn, _ in m.entries}
            replayable = all(sn in held or sn in self.commit_log
                             for sn in range(self.ex + 1,
                                             m.executed_upto + 1))
            if not replayable:
                # Too far behind to replay the log (the peers checkpointed
                # past our horizon): state transfer.
                self.restore_to(m.executed_upto, m.snapshot)
        self.log_entries(m.entries, self.view)
        self.execute_ready()


class QuorumClient(SmrClientBase):
    """Closed-loop client that commits on ``reply_quorum`` matching
    replies, the number the protocol fixes
    (:attr:`ClusterConfig.reply_quorum`): the leader's one reply for the
    CFT protocols (Paxos, Zab), ``t + 1`` matching for PBFT, all ``3t +
    1`` speculative replies for Zyzzyva's fast path.
    """

    def __init__(self, client_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 site: str, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(client_id, config, sim, network, keystore, site,
                         cost_model)
        self.reply_quorum = config.reply_quorum

    def make_request(self, op: Any, timestamp: int,
                     size_bytes: int) -> Request:
        return Request(op=op, timestamp=timestamp, client=self.client_id,
                       size_bytes=size_bytes, signature=None)

    def send_request(self, request: Request) -> None:
        assert self.config.n is not None
        self.send_authenticated(f"r{self.view % self.config.n}",
                                ClientRequestMsg(request))

    def on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, GenericReply):
            return
        request = self.request
        if request is None or payload.timestamp != request.timestamp:
            return
        if not self.cpu.free:
            # Not payload.wire_bytes: a reply re-sent from the cache
            # claims 0 B, yet its MAC is checked like any other's.
            self.cpu.charge_mac(64)
        if payload.view > self.view:
            # A leader change happened: follow the replies to the new
            # leader instead of waiting out a timeout per request.
            self.view = payload.view
        key = (payload.seqno, payload.result_digest.value)
        self.tally.add(payload.replica, key, payload)
        if self.tally.quorum(key, self.reply_quorum):
            self.complete(self.tally.result(key))

    def retransmit(self, request: Request) -> None:
        # Re-send to every replica; the leader deduplicates.
        assert self.config.n is not None
        self.multicast_authenticated(
            [f"r{r}" for r in range(self.config.n)],
            ClientRequestMsg(request))
        self._timer.start(self.config.request_retransmit_ms)
