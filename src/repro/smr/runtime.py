"""Shared runtime for replicas and clients of every protocol.

:class:`ReplicaBase` and :class:`SmrClientBase` wrap a :class:`Process` with
a network endpoint, a keystore facade, and a CPU meter.  A replica of any
protocol receives through one handler table: it registers a handler per
message class it accepts in ``_handlers`` (its constructor, or the
component that owns the class), and :meth:`ReplicaBase.on_message` is the
one place a delivered message is dispatched.  Clients implement
``on_message`` themselves.

:class:`ClusterRuntime` wires a full experiment together: simulator,
network, keystore, replicas, clients -- and exposes the fault-injection and
safety-checking hooks the harness and tests use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, ProtocolViolation
from repro.crypto.authenticators import authenticator_for
from repro.crypto.costs import CostModel, CpuMeter
from repro.crypto.primitives import (
    KeyStore,
    client_principal,
    replica_principal,
)
from repro.net.network import Endpoint, Network
from repro.sim.core import Simulator
from repro.sim.process import Process, Timer
from repro.smr.app import StateMachine
from repro.smr.log import CommitEntry, CommitLog
from repro.smr.messages import Batch, Request
from repro.smr.sequencer import PipelinedSequencer


class NodeBase(Process):
    """Common machinery of any network-attached node."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 site: str, keystore: KeyStore,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(sim, name)
        self.network = network
        self.site = site
        self.keystore = keystore
        self.cpu = CpuMeter(cost_model or CostModel.free())
        network.attach(Endpoint(name, site, self._on_deliver_auth,
                                lambda: not self.crashed))
        #: Messages received, for debugging and protocol statistics.
        self.messages_received = 0
        #: Deliveries dropped because their channel authenticator failed.
        self.auth_failures = 0

    # ------------------------------------------------------------------
    def _on_deliver_auth(self, src: str, body: Any, auth: Any,
                         size_bytes: int) -> None:
        """The one inbox: verify the channel authenticator the transport
        stamped for us, then dispatch the bare body.

        A failed check drops the message before the protocol handler sees
        it -- the transport-level equivalent of the per-handler MAC checks
        the payloads used to carry.
        """
        if self.crashed:
            return
        self.messages_received += 1
        policy = authenticator_for(type(body))
        if policy is not None and policy.verify_on_delivery:
            network = self.network
            network.stats.auth_verified += 1
            # The transport publishes the digest it computed from this
            # very body object; a forged injection bypassing the
            # transport sees None and pays the full re-hash.
            if not policy.verify(self.keystore, self.cpu, src, self.name,
                                 body, auth, size_bytes=size_bytes,
                                 body_digest=network.delivery_digest):
                self.auth_failures += 1
                return
        self.on_message(src, body)

    def on_message(self, src: str, payload: Any) -> None:
        """Handle one delivered message. Subclasses implement."""
        raise NotImplementedError

    def _policy_for(self, payload: Any):
        policy = authenticator_for(type(payload))
        if policy is None:
            raise ConfigurationError(
                f"{type(payload).__name__} has no authenticator policy; "
                f"register it in its protocol's messages module")
        return policy

    def send_authenticated(self, dst: str, payload: Any,
                           size_bytes: int = 0) -> None:
        """Send one message under its class's authenticator policy.

        The policy (registered in ``repro.crypto.authenticators``) decides
        what travels on the channel: a per-receiver MAC, a signature, a
        modelled-cost-only MAC, or nothing.  Sender-side CPU is charged
        here; the receiver's runtime verifies before dispatch.
        """
        policy = self._policy_for(payload)
        policy.charge_send(self.cpu, 1, size_bytes)
        self.network.send_authenticated(
            self.name, dst, payload, size_bytes=size_bytes,
            authenticator=policy, keystore=self.keystore)

    def multicast_authenticated(self, dsts: Sequence[str], payload: Any,
                                size_bytes: int = 0) -> None:
        """Fan a message out with per-receiver authenticators stamped at
        delivery fan-out time (see :meth:`Network.multicast_authenticated`).

        This is what lets MAC-vector fan-outs ride the multicast fast
        path: the payload is identical for every receiver, only the
        transport-level authenticator differs.
        """
        if not dsts:
            return
        policy = self._policy_for(payload)
        policy.charge_send(self.cpu, len(dsts), size_bytes)
        self.network.multicast_authenticated(
            self.name, dsts, payload, size_bytes=size_bytes,
            authenticator=policy, keystore=self.keystore)


class ReplicaBase(NodeBase):
    """Base class for protocol replicas.

    A replica owns a state machine instance, a signing principal, the
    ordering state every protocol shares (``view``, ``sn``, ``ex``, the
    commit log, the sequencer, the reply cache) and the one execute ->
    reply core (docs/execution.md): a protocol commits by putting a
    :class:`CommitEntry` into ``commit_log`` and calling
    :meth:`execute_ready`; what happens after a slot executes (replies,
    lazy replication, checkpoints) is its :meth:`after_execute`.
    Subclasses implement the ordering exchange proper, plus
    ``may_propose()`` and ``propose_batch(seqno, batch)`` for the
    sequencer, and register a ``handler(src, message)`` per message class
    they receive in ``_handlers``.
    """

    def __init__(self, replica_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 app_factory: Callable[[], StateMachine],
                 site: str, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(sim, network,
                         name=f"r{replica_id}", site=site,
                         keystore=keystore, cost_model=cost_model)
        self.replica_id = replica_id
        self.config = config
        self.app = app_factory()
        self._app_factory = app_factory
        self.principal = replica_principal(replica_id)
        #: The one dispatch table: message class -> ``handler(src, m)``.
        self._handlers: Dict[type, Callable[[str, Any], None]] = {}
        #: Execution order observed by this replica, recorded for the safety
        #: checker: one ``(seqno, rids)`` entry per executed slot, ``rids``
        #: being the batch's own ``Batch.rids()`` tuple.
        self.execution_trace: List[tuple] = []
        #: Count of committed requests (not batches).
        self.committed_requests = 0
        self.view = 0
        self.sn = 0  # highest sequence number issued / prepared locally
        self.ex = 0  # highest sequence number executed
        self.commit_log = CommitLog()
        self.sequencer = PipelinedSequencer(self)
        #: Objects keeping state of their own, each with a
        #: ``recovered()`` (:meth:`recover`); XPaxos appends its five.
        self.components: List[Any] = [self.sequencer]
        #: Reply cache: client id -> this replica's reply to that client's
        #: latest executed request -- the reply itself where it was sent
        #: with the full result, else ``(slot, index)`` into a ``(view,
        #: seqno, batch, results)`` record the slot's requests share
        #: (:meth:`cache_unsent`), from which :meth:`cached_reply` builds
        #: the reply if anyone asks.
        self._last_reply: Dict[int, Any] = {}
        #: Metrics hook, called once per executed slot.
        self.on_commit_batch: Optional[Callable[[int, Batch], None]] = None

    def on_message(self, src: str, payload: Any) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            return  # unknown message types are ignored, not fatal
        try:
            handler(src, payload)
        except ProtocolViolation:
            # Section 4.3.2 case (i): a non-conforming message from an
            # active replica triggers view-change initiation (every
            # protocol's replica defines ``suspect_view``).
            self.suspect_view(self.view)

    def recover(self) -> None:
        """Come back from a crash: ``view``, ``sn``, ``ex``, the logs and
        the app are durable; each component says what else a crash
        forgets (docs/execution.md, "What `recover()` forgets")."""
        super().recover()
        for component in self.components:
            component.recovered()

    # -- execute -> reply core ------------------------------------------
    def execute_slot(self, seqno: int, batch: Batch) -> List[Any]:
        """Apply one slot to the application: trace, count, advance ``ex``,
        fire ``on_commit_batch``; returns the per-request results.

        :meth:`execute_ready` is the caller for committed slots; a replica
        that executes before its commit entry can exist (the XPaxos t = 1
        follower) calls this directly.
        """
        results = self.app.execute_batch(
            [request.op for request in batch.requests])
        rids = batch.rids()
        self.execution_trace.append((seqno, rids))
        self.committed_requests += len(rids)
        # From here on the reply cache answers duplicates of these requests.
        self.sequencer.forget(rids)
        self.ex = seqno
        if self.on_commit_batch is not None:
            self.on_commit_batch(seqno, batch)
        return results

    def execute_ready(self) -> None:
        """Execute committed slots in sequence order up to the first hole,
        handing each to :meth:`after_execute`; executing re-opens the
        pipeline window, so the sequencer is pumped once if anything ran."""
        progressed = False
        while True:
            seqno = self.ex + 1
            entry = self.commit_log.get(seqno)
            if entry is None:
                break
            progressed = True
            results = self.execute_slot(seqno, entry.batch)
            self.after_execute(seqno, entry, results)
        if progressed:
            self.sequencer.pump()

    def after_execute(self, seqno: int, entry: CommitEntry,
                      results: List[Any]) -> None:
        """Called once per slot :meth:`execute_ready` executed, with ``ex``
        already advanced: cache / send replies, checkpoint, propagate."""

    def make_reply(self, view: int, seqno: int, request: Request,
                   result: Any) -> Any:
        """This protocol's reply to ``request``, executed in slot
        ``seqno`` of ``view`` with ``result``, as a replica that does not
        send it caches it (full result, no wire bytes).  Subclasses
        implement; their send path builds its replies through the same
        method."""
        raise NotImplementedError

    def cache_unsent(self, seqno: int, batch: Batch,
                     results: List[Any]) -> None:
        """Reply cache of a replica that executed a slot it does not
        answer: one shared record for the slot and a pointer per client.
        No reply is built (and no result digested) unless
        :meth:`cached_reply` is asked for it."""
        slot = (self.view, seqno, batch, results)
        last_reply = self._last_reply
        for index, request in enumerate(batch.requests):
            last_reply[request.client] = (slot, index)

    def cached_reply(self, client: int, timestamp: int) -> Optional[Any]:
        """This replica's cached reply to ``client`` if it has executed that
        client's request ``timestamp`` or a later one (the request must not
        be ordered again), else None.  The reply answers ``timestamp``
        itself only when its own timestamp is equal.  A reply cached
        unsent is built on the first ask and kept."""
        cached = self._last_reply.get(client)
        if cached is None:
            return None
        if cached.__class__ is tuple:
            (view, seqno, batch, results), index = cached
            request = batch.requests[index]
            if request.timestamp < timestamp:
                return None
            cached = self.make_reply(view, seqno, request, results[index])
            self._last_reply[client] = cached
            return cached
        return cached if cached.timestamp >= timestamp else None

    def answer_from_cache(self, request: Request) -> bool:
        """Duplicate suppression at the request intake: True when
        ``request`` was already executed here, re-sending the cached reply
        if it is still the client's latest."""
        cached = self.cached_reply(request.client, request.timestamp)
        if cached is None:
            return False
        if cached.timestamp == request.timestamp:
            self.send_authenticated(f"c{request.client}", cached,
                                    size_bytes=cached.size_bytes)
        return True

    def restore_to(self, seqno: int, snapshot: Any,
                   state_digest: Optional[bytes] = None) -> bool:
        """State transfer: replace the application with a fresh one
        restored from ``snapshot``, taken after slot ``seqno``, and move
        ``ex`` / ``sn`` up to it -- never backwards.  The caller has
        verified where ``state_digest`` came from; given one, a snapshot
        that does not restore to it is refused (False, nothing changed)."""
        if seqno <= self.ex:
            return True
        replaced, self.app = self.app, self._app_factory()
        self.app.restore(snapshot)
        if state_digest is not None \
                and self.app.state_digest() != state_digest:
            self.app = replaced
            return False
        self.ex = seqno
        self.sn = max(self.sn, seqno)
        return True

    def retained(self) -> Dict[str, int]:
        """Sizes of the structures this replica keeps as it runs (``repro
        profile``'s ``[state]`` block; docs/execution.md says what bounds
        each).  Computed on request: nothing is counted while running."""
        return {
            "commit_log": len(self.commit_log),
            "sequencer_seen": len(self.sequencer.seen),
            "reply_cache": len(self._last_reply),
            "trace_entries": len(self.execution_trace),
        }

    # -- fan-out helper ---------------------------------------------------
    def _fanout_with_self(self, names: Sequence[str], payload: Any,
                          size_bytes: int,
                          self_handler: Callable[[], None]) -> None:
        """Authenticated fan-out that keeps this replica's own processing
        at its position in ``names``, so the per-destination latency draw
        order matches a sequential send loop with inline self-delivery.

        The one shared implementation of the split pattern every protocol
        uses (votes, campaigns, view-change fan-outs): changing how the
        self position is located here changes it for all of them, instead
        of silently desynchronizing one protocol's draw order.
        """
        if self.name not in names:
            self.multicast_authenticated(names, payload,
                                         size_bytes=size_bytes)
            return
        me = names.index(self.name)
        before, after = names[:me], names[me + 1:]
        policy = self._policy_for(payload)
        policy.charge_send(self.cpu, len(before) + len(after), size_bytes)
        # One shared authenticator context (typically the payload digest)
        # across both halves of the split: still one hash per fan-out.
        context = policy.begin(self.keystore, self.name, payload)
        network = self.network
        if before:
            network.multicast_authenticated(
                self.name, before, payload, size_bytes=size_bytes,
                authenticator=policy, keystore=self.keystore,
                context=context)
        self_handler()
        if after:
            network.multicast_authenticated(
                self.name, after, payload, size_bytes=size_bytes,
                authenticator=policy, keystore=self.keystore,
                context=context)

    # -- crypto convenience, charging CPU --------------------------------
    def sign(self, payload: Any):
        """Sign as this replica, charging signature CPU cost."""
        self.cpu.charge_sign()
        return self.keystore.sign(self.principal, payload)

    # -- protocol hooks -----------------------------------------------
    def replica_name(self, replica_id: int) -> str:
        """Network name of a peer replica."""
        return f"r{replica_id}"

    def all_replica_names(self) -> List[str]:
        """Network names of the whole cluster, including self."""
        assert self.config.n is not None
        return [f"r{i}" for i in range(self.config.n)]

    def other_replica_names(self) -> List[str]:
        """Network names of all peers."""
        return [n for n in self.all_replica_names() if n != self.name]


class ReplyTally:
    """Which replicas vouch for which outcome of the in-flight request.

    A reply votes for a ``key`` -- ``(seqno, result_digest)``, with the
    view in front for XPaxos.  A replica counts once: its newer reply
    replaces its older vote.  The first full result seen for a key is kept
    (digest-only replies vote without one), and a quorum is only reported
    once one is held.  O(1) per reply.
    """

    __slots__ = ("_vote", "_voters", "_result")

    def __init__(self) -> None:
        self._vote: Dict[int, tuple] = {}
        self._voters: Dict[tuple, Dict[int, Any]] = {}
        self._result: Dict[tuple, Any] = {}

    def clear(self) -> None:
        """Forget everything (a new request goes in flight)."""
        self._vote.clear()
        self._voters.clear()
        self._result.clear()

    def add(self, replica: int, key: tuple, reply: Any,
            full: bool = True) -> None:
        """Record ``reply`` as ``replica``'s vote for ``key``; ``full``
        says whether it carries the result itself (``reply.result``)."""
        previous = self._vote.get(replica)
        if previous is not None and previous != key:
            del self._voters[previous][replica]
        self._vote[replica] = key
        self._voters.setdefault(key, {})[replica] = reply
        if full:
            self._result.setdefault(key, reply.result)

    def voters(self, key: tuple) -> Dict[int, Any]:
        """``replica -> reply`` of the replicas currently voting ``key``."""
        return self._voters.get(key, {})

    def quorum(self, key: tuple, need: int) -> bool:
        """Do ``need`` replicas vote ``key`` and is its full result held?"""
        return (len(self._voters.get(key, ())) >= need
                and key in self._result)

    def result(self, key: tuple) -> Any:
        """The full result held for ``key`` (None if none is)."""
        return self._result.get(key)

    def __iter__(self):
        return iter(self._voters)


class SmrClientBase(NodeBase):
    """Base class for protocol clients.

    Owns the single in-flight request of a closed-loop client -- the
    request, when it was sent, the retry timer, the :class:`ReplyTally` of
    the replies so far and the one completion method -- plus signed
    request construction and per-request latency recording.

    The retry timer ``timer_c`` is armed with a retransmission timeout
    estimated from this client's own completions, as TCP does (RFC 6298):
    ``SRTT + max(batch_timeout_ms, 4 RTTVAR)``, at least ``delta_ms`` and
    at most ``request_retransmit_ms``, which is also the timeout before
    the first sample.  ``batch_timeout_ms`` plays RFC 6298's clock
    granularity G: a jitter-free round trip still waits one batch cut
    longer than its mean.  ``delta_ms`` plays its minimum RTO (2.4): a
    round trip that swings faster than the estimate follows -- the WAN
    latency model does -- is not re-sent before one network bound has
    passed.  Karn's rule: a request that was re-sent is never sampled.
    Only the first wait is the estimate; :meth:`retransmit` decides the
    later ones.  While ``delta_ms`` bounds the network, an early expiry
    costs messages only -- what suspects a leader is the replicas' own
    timers; below the network's real tail it starts XPaxos's Algorithm 4
    sooner (``docs/execution.md``, "What starts a view change").

    Subclasses say how a request is built and sent (:meth:`make_request`,
    :meth:`send_request`, :meth:`retransmit`) and implement the commit
    rule in ``on_message``; the closed-loop driving logic lives in
    :mod:`repro.workloads.clients`.
    """

    def __init__(self, client_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 site: str, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(sim, network,
                         name=f"c{client_id}", site=site,
                         keystore=keystore, cost_model=cost_model)
        self.client_id = client_id
        self.config = config
        self.principal = client_principal(client_id)
        self.timestamp = 0
        #: Highest view seen in any reply; decides whom requests go to.
        self.view = 0
        #: The request in flight (None when idle) and its bookkeeping.
        self.request: Optional[Request] = None
        self._sent_at = 0.0
        self.retries = 0  # retry-timer expiries of the request in flight
        #: Was the request in flight re-sent (Karn's rule: do not sample)?
        self.resent = False
        #: Smoothed round trip and its mean deviation (RFC 6298), ms;
        #: ``srtt`` is None until the first sample.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.tally = ReplyTally()
        self._timer = Timer(self, self._on_timeout, "timer_c")
        #: Retry-timer expiries that led to a retransmission, all requests.
        self.timeouts = 0
        #: Called with the committed result when the in-flight op finishes.
        self.on_result: Optional[Callable[[Any], None]] = None
        #: Completed operations: list of (send time, commit time, rid).
        self.completions: List[tuple] = []
        #: Callback invoked on each commit: ``on_commit(rid, latency_ms)``.
        self.on_commit: Optional[Callable[[tuple, float], None]] = None

    def sign(self, payload: Any):
        """Sign as this client, charging CPU."""
        self.cpu.charge_sign()
        return self.keystore.sign(self.principal, payload)

    def next_timestamp(self) -> int:
        """Monotonically increasing per-client timestamp ``ts_c``."""
        self.timestamp += 1
        return self.timestamp

    # -- the single in-flight request -------------------------------------
    @property
    def busy(self) -> bool:
        """True while a request is in flight."""
        return self.request is not None

    def propose(self, op: Any, size_bytes: int = 0) -> Request:
        """Invoke one operation (the client must be idle -- closed loop)."""
        if self.request is not None:
            raise RuntimeError(
                f"client {self.client_id} already has a request in flight")
        request = self.make_request(op, self.next_timestamp(), size_bytes)
        self.request = request
        self._sent_at = self.sim.now
        self.retries = 0
        self.resent = False
        self.tally.clear()
        self.send_request(request)
        self._timer.start(self.retransmit_timeout_ms)
        return request

    @property
    def retransmit_timeout_ms(self) -> float:
        """What ``timer_c`` is armed with when a request goes out."""
        cap = self.config.request_retransmit_ms
        if self.srtt is None:
            return cap
        estimate = self.srtt + max(self.config.batch_timeout_ms,
                                   4.0 * self.rttvar)
        return min(cap, max(self.config.delta_ms, estimate))

    def _sample_round_trip(self, rtt_ms: float) -> None:
        """Fold one measured round trip into SRTT / RTTVAR (RFC 6298
        2.2-2.3)."""
        if self.srtt is None:
            self.srtt = rtt_ms
            self.rttvar = rtt_ms / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt_ms)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt_ms

    def make_request(self, op: Any, timestamp: int,
                     size_bytes: int) -> Request:
        """Build (and, where the protocol signs, sign) one request."""
        raise NotImplementedError

    def send_request(self, request: Request) -> None:
        """Send ``request`` to the leader of ``self.view``."""
        raise NotImplementedError

    def retransmit(self, request: Request) -> None:
        """The retry timer expired with ``request`` still in flight:
        re-send it and re-arm the timer."""
        raise NotImplementedError

    def _on_timeout(self) -> None:
        request = self.request
        if request is None:
            return
        self.timeouts += 1
        self.retries += 1
        self.resent = True
        self.retransmit(request)

    def complete(self, result: Any) -> None:
        """Commit the in-flight request and hand ``result`` up."""
        request = self.request
        assert request is not None
        self.request = None
        self._timer.stop()
        if not self.resent:
            self._sample_round_trip(self.sim.now - self._sent_at)
        self.record_completion(request.rid, self._sent_at)
        if self.on_result is not None:
            self.on_result(result)

    def record_completion(self, rid: tuple, sent_at: float) -> None:
        """Record a committed request and fire the harness callback."""
        latency = self.sim.now - sent_at
        self.completions.append((sent_at, self.sim.now, rid))
        if self.on_commit is not None:
            self.on_commit(rid, latency)


class ClusterRuntime:
    """Owns all moving parts of one simulated deployment.

    Protocol factories build replicas/clients into this container; the
    harness and the fault injector operate on it.
    """

    def __init__(self, config: ClusterConfig, sim: Simulator,
                 network: Network, keystore: KeyStore) -> None:
        self.config = config
        self.sim = sim
        self.network = network
        self.keystore = keystore
        self.replicas: List[ReplicaBase] = []
        self.clients: List[SmrClientBase] = []

    def add_replica(self, replica: ReplicaBase) -> None:
        """Register a replica (must be added in id order)."""
        if replica.replica_id != len(self.replicas):
            raise ConfigurationError(
                f"replicas must be added in order; expected id "
                f"{len(self.replicas)}, got {replica.replica_id}"
            )
        self.replicas.append(replica)

    def add_client(self, client: SmrClientBase) -> None:
        """Register a client."""
        self.clients.append(client)

    def replica(self, replica_id: int) -> ReplicaBase:
        """Replica by id."""
        return self.replicas[replica_id]

    def run(self, until: float) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)
