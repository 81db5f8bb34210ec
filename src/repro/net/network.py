"""Message delivery: endpoints, sends, latency + bandwidth + partitions.

The :class:`Network` connects named :class:`Endpoint` objects (replicas and
clients).  Channels are reliable point-to-point (Section 2) -- no
duplication, no corruption -- but unordered, like independent TCP
connections racing.  No protocol here relies on per-pair order: a
message that outruns the one it depends on is buffered by its receiver
(Zab's COMMIT before its PROPOSAL, an XPaxos PREPARE out of sequence).

One delivery pipeline
---------------------

:meth:`Network.send` is the one way onto the wire.  It takes
``(dst, payload, size_bytes)`` items: one item for one receiver, one
payload object in every item for a multicast, a payload of its own per
receiver for a slot's replies.  So each rule lives in one place:

* **Resolve first.**  Every endpoint name is looked up before stats, RNG
  or the uplink are touched; an unknown name raises with no side effects.
* **Once per call**: the sender's endpoint, its crash check (the node's
  plain ``crashed`` attribute, which :class:`Endpoint` reaches through
  its ``node``), the clock and the locals.  The policy comes with the
  call, so the runtime looks it up once per call too.
* **Sender-side drops are judged at send time**: a crashed sender, a
  partitioned pair or a ``send_filter`` veto drops the message there and
  then.  A partition raised or healed mid-flight changes nothing for
  messages already sent.
* **Timing**: inter-site traffic first queues on the sender's uplink
  (serialization delay), then draws a one-way delay from the latency
  model, in item order -- one call draws exactly what the same sends
  issued one by one would, and schedules its deliveries in that order.
* **Authentication is a stage, not a sibling path**: every send carries
  an authenticator policy.  Its context (typically the payload digest)
  is computed once per payload object -- once for a multicast, once per
  reply of a slot -- each receiver's authenticator is
  stamped as its delivery is scheduled, and each receiver is charged the
  authenticator bytes it sees on the wire.  A plain send is the ``NULL``
  policy: no bytes, no RNG, and ``None`` stamped without asking it.
* **Receiver crashes are judged at delivery time**, per receiver: every
  delivery is its own event, and a message to a node that crashed
  mid-flight is lost.

Deliveries publish the fan-out's body digest through
:attr:`Network.delivery_digest` while the delivery callback runs.  The
transport computed it from the very body object being delivered, so the
receiving runtime may hand it to ``Authenticator.verify(...,
body_digest=...)`` and skip re-hashing the payload -- a forged injection
that bypasses the transport sees ``None`` and pays the full check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.partition import PartitionController
from repro.sim.core import Simulator


class Endpoint:
    """A network-attached node: has a name, a site, an inbox callback and
    the node it belongs to.

    ``deliver`` is called as ``(src, body, auth, size_bytes)``: the bare
    body, the authenticator the transport stamped for this receiver, and
    the bytes this receiver saw on the wire.  ``node`` is anything with a
    ``crashed`` attribute (a :class:`~repro.sim.process.Process`); the
    transport reads it directly at send and at delivery time.
    """

    __slots__ = ("name", "site", "deliver", "node")

    def __init__(self, name: str, site: str,
                 deliver: Callable[[str, Any, Any, int], None],
                 node: Any) -> None:
        self.name = name
        self.site = site
        self.deliver = deliver
        self.node = node

    def is_up(self) -> bool:
        """Is the node up?  (Off the per-message path.)"""
        return not self.node.crashed


#: Sentinel: no precomputed authenticator context was supplied.
_NO_CONTEXT = object()


@dataclass(slots=True)
class NetworkStats:
    """Counters exposed for tests, the harness and ``repro profile``.

    Slotted: the counters are bumped up to three times per message, so
    attribute access here is hot-path cost."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_partition: int = 0
    messages_dropped_crash: int = 0
    bytes_sent: int = 0
    #: Coalesced delivery is gone; the ledger (benchmarks/e2e/workloads.py)
    #: still reads these two, so they stay 0 until a benchmark-only PR
    #: retires the rows.
    coalesced_ticks: int = 0
    coalesced_deliveries: int = 0
    #: Per-receiver authenticators stamped by the transport.
    auth_stamped: int = 0
    #: Deliveries whose authenticator the receiving runtime verified
    #: (incremented by the runtime; failures are per-node counters).
    auth_verified: int = 0


class Network:
    """The message fabric shared by one experiment.

    Args:
        sim: the discrete-event simulator driving delivery.
        latency: one-way delay model between sites.
        bandwidth: optional uplink model; None disables serialization delay
            (unit tests).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        bandwidth: Optional[BandwidthModel] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.partitions = PartitionController()
        self.stats = NetworkStats()
        self._endpoints: Dict[str, Endpoint] = {}
        # Bound once (the instance attribute shadows the method):
        # loading it per delivery would build a bound method each time.
        self._deliver = self._deliver
        #: Body digest of the delivery currently in flight (set around
        #: the ``deliver`` callback, ``None`` otherwise).
        #: The receiver runtime passes it to ``Authenticator.verify`` as
        #: the trusted transport-computed digest of the delivered body.
        self.delivery_digest: Any = None
        #: Optional hook called as ``on_send(src, dst, payload) -> bool``;
        #: returning False drops the message.  Used by adversarial tests to
        #: delay or censor traffic.
        self.send_filter: Optional[Callable[[str, str, Any], bool]] = None

    # ------------------------------------------------------------------
    def attach(self, endpoint: Endpoint) -> None:
        """Register an endpoint. Names must be unique."""
        if endpoint.name in self._endpoints:
            raise ConfigurationError(f"duplicate endpoint {endpoint.name}")
        self._endpoints[endpoint.name] = endpoint

    def endpoint(self, name: str) -> Endpoint:
        """Look up an endpoint by name."""
        try:
            return self._endpoints[name]
        except KeyError:
            raise ConfigurationError(f"unknown endpoint {name}")

    # ------------------------------------------------------------------
    def send(self, src: str, items: Sequence[Tuple[str, Any, int]], *,
             authenticator: Any, keystore: Any,
             context: Any = _NO_CONTEXT) -> None:
        """Send ``(dst, payload, size_bytes)`` items, in order, each under
        ``authenticator``: the one send pipeline (see the module notes).

        ``context`` is the authenticator context of the first item's
        payload, or :data:`_NO_CONTEXT` to compute it here; a split
        fan-out passes it in so its payload is still hashed once.
        Loopback sends go through the event queue with intra-site
        latency, which keeps handler re-entrancy simple.
        """
        endpoints = self._endpoints
        auth_bytes = authenticator.auth_bytes
        wire_bytes = 0
        try:
            source = endpoints[src]
            for dst, _, size_bytes in items:  # resolve first
                endpoints[dst]
                wire_bytes += size_bytes + auth_bytes
        except KeyError as unknown:
            raise ConfigurationError(
                f"unknown endpoint {unknown.args[0]}") from None
        stats = self.stats
        fan = len(items)
        stats.messages_sent += fan
        stats.bytes_sent += wire_bytes
        if source.node.crashed:
            # A crashed node cannot send; callers normally guard, but the
            # fault injector can race a crash with an in-progress handler.
            stats.messages_dropped_crash += fan
            return
        # Decided once per call: the policy's stamping, the sender's
        # site and the clock; everything below varies per item.
        stamps = authenticator.stamps
        held = _NO_CONTEXT  # the payload ``context`` belongs to
        auth = digest = None
        if stamps and context is not _NO_CONTEXT:
            held = items[0][1]
            digest = authenticator.context_digest(context)
        partitions = self.partitions
        bandwidth = self.bandwidth
        latency = self.latency
        deliver = self._deliver
        sim = self.sim
        now = sim.now
        site = source.site
        for dst, payload, size_bytes in items:
            if stamps and payload is not held:
                held = payload
                context = authenticator.begin(keystore, src, payload)
                digest = authenticator.context_digest(context)
            target = endpoints[dst]
            if partitions._blocked and partitions.blocked(src, dst):
                stats.messages_dropped_partition += 1
                continue
            if self.send_filter is not None and not self.send_filter(
                    src, dst, payload):
                stats.messages_dropped_partition += 1
                continue
            size_bytes += auth_bytes
            depart = now
            if bandwidth is not None and size_bytes > 0 \
                    and site != target.site:
                depart = bandwidth.serialize(src, size_bytes, now)
            arrival = depart + latency.sample_one_way(
                site, target.site, depart)
            if stamps:
                auth = authenticator.stamp(keystore, src, dst, context)
            stats.auth_stamped += 1
            sim.schedule(arrival, deliver,
                         (target, src, payload, auth, size_bytes, digest))

    def _deliver(self, target: Endpoint, src: str, payload: Any,
                 auth: Any, size_bytes: int, digest: Any) -> None:
        """Delivery-time half of every send: the receiver's crash check,
        then its inbox."""
        if target.node.crashed:
            self.stats.messages_dropped_crash += 1
            return
        self.stats.messages_delivered += 1
        self.delivery_digest = digest
        try:
            target.deliver(src, payload, auth, size_bytes)
        finally:
            self.delivery_digest = None

    # ------------------------------------------------------------------
    def timely(self, a: str, b: str, delta_ms: float) -> bool:
        """Can ``a`` and ``b`` currently exchange a message within Delta?

        Used by the safety checker's anarchy predicate: a pair is timely if
        it is not partitioned and the *mean* one-way delay is within Delta.
        """
        if self.partitions.blocked(a, b):
            return False
        ea, eb = self.endpoint(a), self.endpoint(b)
        if not (ea.is_up() and eb.is_up()):
            return False
        return self.latency.mean_one_way(ea.site, eb.site) <= delta_ms
