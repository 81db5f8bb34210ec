"""Message delivery: endpoints, sends, latency + bandwidth + partitions.

The :class:`Network` connects named :class:`Endpoint` objects (replicas and
clients).  Channels are reliable point-to-point (Section 2) -- no
duplication, no corruption -- but unordered, like independent TCP
connections racing.  No protocol here relies on per-pair order: a
message that outruns the one it depends on is buffered by its receiver
(Zab's COMMIT before its PROPOSAL, an XPaxos PREPARE out of sequence).

One delivery pipeline
---------------------

The two public verbs -- :meth:`Network.send_authenticated` and
:meth:`Network.multicast_authenticated` -- are thin entries into one
fan-out routine, so each rule lives in one place:

* **Resolve first.**  Every endpoint name is looked up before stats, RNG
  or the uplink are touched; an unknown name raises with no side effects.
* **Sender-side drops are judged at send time**: a crashed sender, a
  partitioned pair or a ``send_filter`` veto drops the message there and
  then.  A partition raised or healed mid-flight changes nothing for
  messages already sent.
* **Timing**: inter-site traffic first queues on the sender's uplink
  (serialization delay), then draws a one-way delay from the latency
  model, in destination order -- a fan-out draws exactly what the same
  sends issued one by one would.
* **Authentication is a stage, not a sibling path**: every send carries
  an authenticator policy.  Its shared context (typically the payload
  digest) is computed once per fan-out, each receiver's authenticator is
  stamped as its delivery is scheduled, and each receiver is charged the
  authenticator bytes it sees on the wire.  A plain send is the ``NULL``
  policy: no bytes, no RNG, and ``None`` stamped.
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
from typing import Any, Callable, Dict, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.partition import PartitionController
from repro.sim.core import Simulator


class Endpoint:
    """A network-attached node: has a name, a site, and an inbox callback.

    ``deliver`` is called as ``(src, body, auth, size_bytes)``: the bare
    body, the authenticator the transport stamped for this receiver, and
    the bytes this receiver saw on the wire.
    """

    __slots__ = ("name", "site", "deliver", "is_up")

    def __init__(self, name: str, site: str,
                 deliver: Callable[[str, Any, Any, int], None],
                 is_up: Callable[[], bool]) -> None:
        self.name = name
        self.site = site
        self.deliver = deliver
        self.is_up = is_up


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
    def _fan_out(self, src: str, dsts: Sequence[str], payload: Any,
                 size_bytes: int, authenticator: Any, keystore: Any,
                 context: Any) -> None:
        """The send pipeline behind both verbs (see module notes).

        ``context`` is the fan-out's shared authenticator context, or
        :data:`_NO_CONTEXT` to compute it here.
        """
        endpoints = self._endpoints
        try:
            source = endpoints[src]
            for dst in dsts:  # resolve first (cheaper than a list)
                endpoints[dst]
        except KeyError as unknown:
            raise ConfigurationError(
                f"unknown endpoint {unknown.args[0]}") from None
        stats = self.stats
        size_bytes += authenticator.auth_bytes
        fan = len(dsts)
        stats.messages_sent += fan
        stats.bytes_sent += size_bytes * fan
        if not source.is_up():
            # A crashed node cannot send; callers normally guard, but the
            # fault injector can race a crash with an in-progress handler.
            stats.messages_dropped_crash += fan
            return
        if context is _NO_CONTEXT:
            context = authenticator.begin(keystore, src, payload)
        digest = authenticator.context_digest(context)
        partitions = self.partitions
        bandwidth = self.bandwidth if size_bytes > 0 else None
        sim = self.sim
        now = sim._now  # property bypass: once per fan-out
        # Nothing else is hoisted: real traffic is 1.0-1.2 receivers per
        # call (end-to-end ledger), where binding a method to a local
        # costs more than calling it once.
        for dst in dsts:
            target = endpoints[dst]
            if partitions._blocked and partitions.blocked(src, dst):
                stats.messages_dropped_partition += 1
                continue
            if self.send_filter is not None and not self.send_filter(
                    src, dst, payload):
                stats.messages_dropped_partition += 1
                continue
            depart = now
            if bandwidth is not None and source.site != target.site:
                depart = bandwidth.serialize(src, size_bytes, now)
            arrival = depart + self.latency.sample_one_way(
                source.site, target.site, depart)
            auth = authenticator.stamp(keystore, src, dst, context)
            stats.auth_stamped += 1
            sim.schedule(arrival, self._deliver,
                         (target, src, payload, auth, size_bytes, digest))

    def _deliver(self, target: Endpoint, src: str, payload: Any,
                 auth: Any, size_bytes: int, digest: Any) -> None:
        """Delivery-time half of every send: the receiver's crash check,
        then its inbox."""
        if not target.is_up():
            self.stats.messages_dropped_crash += 1
            return
        self.stats.messages_delivered += 1
        self.delivery_digest = digest
        try:
            target.deliver(src, payload, auth, size_bytes)
        finally:
            self.delivery_digest = None

    # ------------------------------------------------------------------
    # The public verbs.  Each calls _fan_out directly, never the other:
    # the end-to-end ledger counts calls to these names.
    # ------------------------------------------------------------------
    def send_authenticated(self, src: str, dst: str, payload: Any,
                           size_bytes: int = 0, *,
                           authenticator, keystore) -> None:
        """Point-to-point flavour of :meth:`multicast_authenticated`.

        Loopback sends are delivered with intra-site latency so a node's
        self-messages still go through the event queue (keeps handler
        re-entrancy simple).
        """
        self._fan_out(src, (dst,), payload, size_bytes, authenticator,
                      keystore, _NO_CONTEXT)

    def multicast_authenticated(self, src: str, dsts: Sequence[str],
                                payload: Any, size_bytes: int = 0, *,
                                authenticator, keystore,
                                context: Any = _NO_CONTEXT) -> None:
        """Fan ``payload`` out with a per-receiver authenticator.

        The per-receiver MAC (or shared signature) is stamped by the
        transport, not embedded in the payload by the protocol layer: the
        payload stays identical across receivers, the policy's shared
        context -- typically the payload digest -- is computed once, and
        each receiver is charged ``size_bytes + authenticator.auth_bytes``,
        the authenticator bytes that receiver actually sees on the wire.
        A split fan-out (self-processing mid-list) passes the shared
        ``context`` in so the payload digest stays one-per-fan-out.

        Observationally identical to one :meth:`send_authenticated` per
        destination, in order, with the sender side resolved once.
        """
        self._fan_out(src, dsts, payload, size_bytes, authenticator,
                      keystore, context)

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
