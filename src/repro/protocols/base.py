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

Every baseline survives leader faults through the same three-part layer
(the pattern Paxos introduced, generalised here):

* **Suspicion**: a non-leader that receives a client's retransmitted
  request forwards it to the leader it believes in and arms an election
  timer; executing a new batch disarms it.  The timer expiring means the
  leader failed to commit a retried request in time.
* **Campaign**: the suspecting replica broadcasts a protocol-specific
  VIEW-CHANGE message for ``target = max(view, last target) + 1`` carrying
  its recovery state.  Replicas that see a campaign for a fresher view
  join it (broadcasting their own state).  The leader of the target view
  (``target mod n``) installs the view once it holds a
  :meth:`view_change_quorum` of VIEW-CHANGE messages, merges the carried
  state (:meth:`install_view`), and announces the new view; followers
  adopt it through :meth:`enter_view`.
* **Catch-up**: a recovering replica multicasts a :class:`SyncRequest`;
  peers answer with their committed suffix and, when the requester is too
  far behind to replay the log, an application snapshot
  (:class:`SyncReply`).  The same messages serve replicas that learn from
  a NEW-VIEW that their execution horizon is stale.

The protocol-specific pieces are the VIEW-CHANGE payload (what state a
replica reports) and the install step (how the new leader merges reported
state and resumes ordering); see the pbft/zyzzyva/zab modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.config import ClusterConfig
from repro.crypto.authenticators import MODELED_MAC, register
from repro.crypto.costs import CostModel
from repro.crypto.primitives import Digest, KeyStore, digest_of
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Timer
from repro.smr.app import StateMachine
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch, Request
from repro.smr.runtime import ReplicaBase, SmrClientBase


def register_modeled(message_class):
    """Bind a baseline message class to the modelled channel-MAC policy
    (CPU + wire bytes accounted at the transport, no real tokens)."""
    return register(message_class, MODELED_MAC)


@register_modeled
@dataclass(frozen=True)
class ClientRequestMsg:
    """Client -> leader request envelope (MAC-authenticated channel)."""

    request: Request


@register_modeled
@dataclass(frozen=True)
class GenericReply:
    """Replica -> client reply, protocol-agnostic."""

    replica: int
    view: int
    seqno: int
    timestamp: int
    client: int
    result: Any
    result_digest: Digest
    size_bytes: int = 0


@register_modeled
@dataclass(frozen=True)
class SyncRequest:
    """Recovering/lagging replica -> peers: send me what I missed."""

    sender: int
    executed_upto: int


@register_modeled
@dataclass(frozen=True)
class SyncReply:
    """Peer -> recovering replica: committed suffix plus, when the
    requester cannot replay the log contiguously, a state snapshot."""

    sender: int
    view: int
    executed_upto: int
    snapshot: Any
    entries: Tuple[Tuple[int, Batch], ...]


class BaselineReplica(ReplicaBase):
    """Skeleton replica: batching at the leader + ordered execution.

    Subclasses implement :meth:`propose_batch` (leader side) and their own
    message handlers, calling :meth:`commit_batch` when a slot becomes
    stable and :meth:`execute_ready` afterwards.
    """

    def __init__(self, replica_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 app_factory: Callable[[], StateMachine], site: str,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(replica_id, config, sim, network, keystore,
                         app_factory, site, cost_model)
        # Leader-change state (see the module docstring).
        self._election_timer = Timer(self, self._on_election_timeout,
                                     "election")
        self._vc_gather_timer = Timer(self, self._on_vc_gather_timeout,
                                      "vc_gather")
        self._vc_msgs: Dict[int, Dict[int, Any]] = {}
        self._target_view = 0  # highest view this replica campaigned for
        self._gathering: Optional[int] = None
        self.elections_started = 0
        self.view_changes_completed = 0

    # -- role -----------------------------------------------------------
    @property
    def leader_id(self) -> int:
        """The leader of the current view (``view mod n``)."""
        assert self.config.n is not None
        return self.view % self.config.n

    @property
    def is_leader(self) -> bool:
        """Is this replica the leader of the current view?"""
        return self.replica_id == self.leader_id

    # -- message dispatch -------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, ClientRequestMsg):
            self.handle_client_request(payload.request)
        elif isinstance(payload, SyncRequest):
            self._on_sync_request(payload)
        elif isinstance(payload, SyncReply):
            self._on_sync_reply(payload)
        else:
            self.on_protocol_message(src, payload)

    def on_protocol_message(self, src: str, payload: Any) -> None:
        """Handle one protocol-specific message. Subclasses implement."""
        raise NotImplementedError

    # -- batching at the leader ------------------------------------------
    def handle_client_request(self, request: Request) -> None:
        """Entry point for client requests: answered from the reply cache
        if already executed; otherwise the leader batches it, and a
        non-leader forwards it to the leader and arms the election timer
        (the leader may be down)."""
        if self.answer_from_cache(request):
            return
        if self.is_leader:
            self.sequencer.offer(request)
            return
        self.send_authenticated(f"r{self.leader_id}",
                                ClientRequestMsg(request),
                                size_bytes=request.size_bytes)
        if not self._election_timer.armed:
            self._election_timer.start(self.config.request_retransmit_ms)

    def may_propose(self) -> bool:
        """May this replica cut batches right now (sequencer hook)?"""
        return self.is_leader and not self.campaigning

    def propose_batch(self, seqno: int, batch: Batch) -> None:
        """Protocol-specific ordering exchange. Subclasses implement."""
        raise NotImplementedError

    # -- commit and execution ---------------------------------------------
    def commit_batch(self, seqno: int, batch: Batch) -> None:
        """Record a stable slot and execute anything now contiguous."""
        if seqno not in self.commit_log:
            self.commit_log.put(
                seqno, CommitEntry(seqno, self.view, batch, ()))
        self.execute_ready()

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
                   result: Any, size_bytes: int = 0) -> GenericReply:
        """The one place a :class:`GenericReply` is built.  A reply cached
        without being sent claims no wire bytes (``size_bytes`` 0), also
        when a later leader re-sends it from the cache."""
        return GenericReply(self.replica_id, view, seqno, request.timestamp,
                            request.client, result, digest_of(result),
                            size_bytes)

    def reply_to_clients(self, seqno: int, batch: Batch,
                         results: List[Any]) -> None:
        """Answer a slot's clients: per request, cache the reply (dedup
        and failover), then ship it MAC-authenticated.  A replica that
        executes without answering calls :meth:`cache_unsent` instead."""
        view = self.view
        last_reply = self._last_reply
        for request, result in zip(batch.requests, results):
            # 64 nominal reply bytes: keeps the sender's modeled MAC cost
            # at the seed's charge_mac(64) (the policy charges over
            # size_bytes) and puts an honest reply size on the wire.
            reply = self.make_reply(view, seqno, request, result, 64)
            last_reply[request.client] = reply
            self.send_authenticated(f"c{request.client}", reply, 64)

    def batch_digest(self, batch: Batch) -> Digest:
        """Digest over the signed request bodies of a batch, charging CPU."""
        self.cpu.charge_digest(batch.size_bytes)
        return batch.bodies_digest()

    # -- leader change ----------------------------------------------------
    def view_change_quorum(self) -> int:
        """VIEW-CHANGE messages needed to install a view (default:
        majority; BFT protocols override with ``2t + 1``)."""
        return self.config.quorum

    def new_leader_of(self, view: int) -> int:
        """Leader of ``view`` (round robin over all replicas)."""
        assert self.config.n is not None
        return view % self.config.n

    def make_view_change(self, target: int) -> Any:
        """Build this protocol's VIEW-CHANGE message for ``target``,
        carrying whatever state the new leader's merge needs."""
        raise NotImplementedError

    def view_change_size(self, message: Any) -> int:
        """Wire size of a VIEW-CHANGE message.  Subclasses account for
        the batches they embed; the default covers headers only."""
        return 256

    def install_view(self, target: int, msgs: Dict[int, Any]) -> None:
        """New-leader side: merge the quorum's VIEW-CHANGE state, announce
        the view, and resume ordering.  Runs with ``self.view == target``
        and protocol in-flight state already cleared."""
        raise NotImplementedError

    def on_enter_view(self, view: int) -> None:
        """Hook: drop per-view in-flight ordering state. Default no-op."""

    @property
    def campaigning(self) -> bool:
        """Between joining a campaign and its view installing.

        A frozen replica must stop proposing and stop accepting the old
        view's ordering messages: anything it speculatively adopted after
        reporting its state would be invisible to the new leader's merge
        and could be reassigned -- a total-order violation.
        """
        return self._target_view > self.view

    def _on_election_timeout(self) -> None:
        self.suspect_view(self.view)

    def suspect_view(self, view: int) -> None:
        """Campaign to replace the leader of ``view`` (also the hook the
        fault injector's ``suspect`` event calls)."""
        if view < self.view:
            return
        self._campaign(max(self.view, self._target_view) + 1)

    def _campaign(self, target: int) -> None:
        """Broadcast our VIEW-CHANGE for ``target`` and join its tally."""
        self._target_view = target
        self.elections_started += 1
        message = self.make_view_change(target)
        size = self.view_change_size(message)
        self.multicast_authenticated(self.other_replica_names(), message,
                                     size_bytes=size)
        self._note_view_change(self.replica_id, target, message)
        # If this campaign stalls (its leader may be down too), escalate
        # to the next view on expiry.
        self._election_timer.start(self.config.view_change_timeout_ms)

    def on_view_change_msg(self, sender: int, target: int,
                           message: Any) -> None:
        """Called by subclasses for each received VIEW-CHANGE message."""
        if target <= self.view:
            return
        if self._target_view < target:
            # A fresher campaign is under way: join it with our state.
            self._campaign(target)
        self._note_view_change(sender, target, message)

    def _note_view_change(self, sender: int, target: int,
                          message: Any) -> None:
        msgs = self._vc_msgs.setdefault(target, {})
        msgs[sender] = message
        if target <= self.view \
                or self.new_leader_of(target) != self.replica_id:
            return
        assert self.config.n is not None
        if len(msgs) >= self.config.n:
            # Everyone reported: install immediately.
            self._vc_gather_timer.stop()
            self._gathering = None
            self._become_leader(target, dict(msgs))
        elif len(msgs) >= self.view_change_quorum() \
                and self._gathering != target:
            # Quorum reached: give stragglers -- above all the deposed
            # leader, whose log may hold slots it executed speculatively
            # that nobody else reported -- one Delta to contribute their
            # state before installing without them.
            self._gathering = target
            self._vc_gather_timer.start(self.config.delta_ms)

    def _on_vc_gather_timeout(self) -> None:
        target, self._gathering = self._gathering, None
        if target is None or target <= self.view:
            return
        msgs = self._vc_msgs.get(target, {})
        if len(msgs) >= self.view_change_quorum():
            self._become_leader(target, dict(msgs))

    def _become_leader(self, target: int, msgs: Dict[int, Any]) -> None:
        self.view = target
        self._target_view = max(self._target_view, target)
        self.view_changes_completed += 1
        self._election_timer.stop()
        self.sequencer.stop_timer()
        self._vc_msgs = {v: m for v, m in self._vc_msgs.items()
                         if v > target}
        self.on_enter_view(target)
        self.install_view(target, msgs)
        # Slots the install step re-proposed are carried state; they must
        # not count against the new leader's pipeline window.
        self.sequencer.carry_over()
        self.sequencer.kick()

    def enter_view(self, view: int) -> None:
        """Adopt a view whose leader already installed it."""
        if view <= self.view:
            return
        self.view = view
        self._target_view = max(self._target_view, view)
        self.view_changes_completed += 1
        self._election_timer.stop()
        self.sequencer.stop_timer()
        self._vc_msgs = {v: m for v, m in self._vc_msgs.items() if v > view}
        if not self.is_leader:
            self.forward_queued()
        self.on_enter_view(view)

    def forward_queued(self) -> None:
        """Requests batched while we believed ourselves leader belong to
        the current leader: forward them, un-marked so retransmissions
        are not dropped here as duplicates."""
        for request in self.sequencer.drain():
            self.send_authenticated(f"r{self.leader_id}",
                                    ClientRequestMsg(request),
                                    size_bytes=request.size_bytes)

    # -- recovery and catch-up --------------------------------------------
    def recover(self) -> None:
        """Rejoin after a crash: ask the peers for the current view and
        the committed suffix we missed.  What the crash kept -- ``ex``,
        the logs and the application they built -- is the one durability
        model of all five protocols (``docs/execution.md``, "What
        `recover()` forgets")."""
        super().recover()
        self.multicast_authenticated(self.other_replica_names(),
                                     SyncRequest(self.replica_id, self.ex),
                                     size_bytes=16)

    def request_sync(self, peer: int) -> None:
        """Ask one peer for the committed suffix above our horizon."""
        self.send_authenticated(f"r{peer}",
                                SyncRequest(self.replica_id, self.ex),
                                size_bytes=16)

    def _on_sync_request(self, m: SyncRequest) -> None:
        entries = tuple((sn, entry.batch)
                        for sn, entry in self.commit_log.items()
                        if sn > m.executed_upto)
        snapshot = self.app.snapshot() if self.ex > m.executed_upto else None
        size = sum(batch.size_bytes for _, batch in entries) + 64
        self.send_authenticated(
            f"r{m.sender}",
            SyncReply(self.replica_id, self.view, self.ex, snapshot,
                      entries),
            size_bytes=size)
        if self.campaigning:
            # The requester may have missed our campaign (it was down or
            # behind): hand it our VIEW-CHANGE, so it joins now instead of
            # when the campaign next escalates.
            own = self._vc_msgs.get(self._target_view, {}).get(
                self.replica_id)
            if own is not None:
                self.send_authenticated(f"r{m.sender}", own,
                                        size_bytes=self.view_change_size(own))

    def _on_sync_reply(self, m: SyncReply) -> None:
        self.cpu.charge_mac(64)
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
        for sn, batch in m.entries:
            if sn > self.ex and sn not in self.commit_log:
                self.commit_log.put(
                    sn, CommitEntry(sn, self.view, batch, ()))
        self.execute_ready()


class QuorumClient(SmrClientBase):
    """Closed-loop client that commits on ``reply_quorum`` matching replies.

    ``reply_quorum = 1`` models CFT protocols where the leader's reply is
    authoritative (Paxos, Zab); BFT protocols need ``t + 1`` matching
    (PBFT) or all ``3t + 1`` speculative replies (Zyzzyva's fast path).
    """

    def __init__(self, client_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 site: str, reply_quorum: int,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(client_id, config, sim, network, keystore, site,
                         cost_model)
        if reply_quorum < 1:
            raise ValueError("reply_quorum must be >= 1")
        self.reply_quorum = reply_quorum

    def make_request(self, op: Any, timestamp: int,
                     size_bytes: int) -> Request:
        return Request(op=op, timestamp=timestamp, client=self.client_id,
                       size_bytes=size_bytes, signature=None)

    def send_request(self, request: Request) -> None:
        assert self.config.n is not None
        self.send_authenticated(f"r{self.view % self.config.n}",
                                ClientRequestMsg(request),
                                size_bytes=request.size_bytes)

    def on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, GenericReply):
            return
        request = self.request
        if request is None or payload.timestamp != request.timestamp:
            return
        self.cpu.charge_mac(64)
        if payload.view > self.view:
            # A leader change happened: follow the replies to the new
            # leader instead of waiting out a timeout per request.
            self.view = payload.view
        key = (payload.seqno, payload.result_digest)
        self.tally.add(payload.replica, key, payload)
        if self.tally.quorum(key, self.reply_quorum):
            self.complete(self.tally.result(key))

    def retransmit(self, request: Request) -> None:
        # Re-send to every replica; the leader deduplicates.
        assert self.config.n is not None
        self.multicast_authenticated(
            [f"r{r}" for r in range(self.config.n)],
            ClientRequestMsg(request), size_bytes=request.size_bytes)
        self._timer.start(self.config.request_retransmit_ms)
