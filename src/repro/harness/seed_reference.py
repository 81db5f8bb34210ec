"""The seed implementations, preserved verbatim as reference oracles.

This repository started from a simulator with ``@dataclass(order=True)``
events and O(n) ``pending`` scans, a network that built a delivery closure
and an f-string label per message, and a canonical encoder that was one
generic ``isinstance`` chain.  All three are kept here, unchanged, as the
oracle: the tests drive the current implementations and these through
identical schedules / payloads and demand identical fire order, clock,
pending counts, delivery traces and digest bytes
(``tests/sim/test_against_seed.py``, ``tests/net/test_against_seed.py``,
``tests/crypto/test_canonical_oracle.py``).

Nothing here may be optimized: its value is that it is the simple version.
"""

from __future__ import annotations

import hashlib
# The seed event loop is a bare heapq by design.  # repro: lint-ok[S002]
import heapq
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.crypto.primitives import Digest, Mac, Signature
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint


@dataclass(order=True)
class _SeedEvent:
    """The seed's Event: ordered dataclass, no __slots__."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class _SeedEventHandle:
    __slots__ = ("_event",)

    def __init__(self, event: _SeedEvent):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True


class SeedSimulator:
    """The seed's event loop: heap of orderable Event objects, lazy
    cancellation without compaction, O(n) ``pending`` scans."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_SeedEvent] = []
        self._sequence = 0
        self._executed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    @property
    def executed(self) -> int:
        return self._executed

    def call_at(self, time: float, callback: Callable[[], None],
                label: str = "") -> _SeedEventHandle:
        event = _SeedEvent(time=time, sequence=self._sequence,
                           callback=callback, label=label)
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return _SeedEventHandle(event)

    def call_after(self, delay: float, callback: Callable[[], None],
                   label: str = "") -> _SeedEventHandle:
        return self.call_at(self._now + delay, callback, label=label)

    def run(self, until: Optional[float] = None) -> int:
        executed = 0
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            self._now = event.time
            self._executed += 1
            executed += 1
            event.callback()
        if until is not None and self._now < until:
            self._now = until
        return executed

    def step(self) -> bool:
        """Fire the single next live event, taken the way :meth:`run`
        takes it.  Not part of the preserved copy; added so the oracle
        tests can compare ``step()`` and ``run(max_events=k)`` -- which
        is ``k`` steps -- against the seed without touching the
        preserved :meth:`run` loop."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._executed += 1
            event.callback()
            return True
        return False


class SeedNetwork:
    """The seed's send path: endpoint lookups per message, a delivery
    closure and an f-string label per message, FIFO dict probed always."""

    def __init__(self, sim: SeedSimulator, latency: LatencyModel,
                 bandwidth: Optional[BandwidthModel] = None,
                 fifo: bool = False) -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.fifo = fifo
        self.delivered = 0
        self._endpoints: Dict[str, Endpoint] = {}
        self._last_delivery: Dict[tuple, float] = {}

    def attach(self, endpoint: Endpoint) -> None:
        self._endpoints[endpoint.name] = endpoint

    def send(self, src: str, dst: str, payload: Any,
             size_bytes: int = 0) -> None:
        source = self._endpoints[src]
        target = self._endpoints[dst]
        if not source.is_up():
            return
        depart = self.sim.now
        if (self.bandwidth is not None and size_bytes > 0
                and source.site != target.site):
            depart = self.bandwidth.serialize(src, size_bytes, self.sim.now)
        delay = self.latency.sample_one_way(source.site, target.site,
                                            now=depart)
        arrival = depart + delay
        if self.fifo:
            key = (src, dst)
            arrival = max(arrival, self._last_delivery.get(key, 0.0))
            self._last_delivery[key] = arrival

        def deliver() -> None:
            if not target.is_up():
                return
            self.delivered += 1
            target.deliver(src, payload)

        self.sim.call_at(arrival, deliver, label=f"{src}->{dst}")

    def broadcast(self, src: str, dsts: List[str], payload: Any,
                  size_bytes: int = 0) -> None:
        for dst in dsts:
            self.send(src, dst, payload, size_bytes=size_bytes)


def seed_canonical(obj: Any) -> bytes:
    """The seed's canonical encoder, preserved verbatim: one generic
    isinstance chain, no exact-type fast path, byte-identical output to
    the current encoder."""
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"T" if obj else b"F"
    if isinstance(obj, int):
        return b"i" + str(obj).encode()
    if isinstance(obj, float):
        return b"f" + repr(obj).encode()
    if isinstance(obj, str):
        data = obj.encode()
        return b"s" + str(len(data)).encode() + b":" + data
    if isinstance(obj, bytes):
        return b"b" + str(len(obj)).encode() + b":" + obj
    if isinstance(obj, Digest):
        return b"D" + obj.value
    if isinstance(obj, Signature):
        return b"S" + seed_canonical((obj.signer, obj.digest.value))
    if isinstance(obj, Mac):
        return b"M" + seed_canonical((obj.sender, obj.receiver,
                                       obj.digest.value))
    if isinstance(obj, (tuple, list)):
        parts = b"".join(seed_canonical(x) for x in obj)
        return b"l" + str(len(obj)).encode() + b":" + parts
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: seed_canonical(kv[0]))
        parts = b"".join(seed_canonical(k) + seed_canonical(v)
                         for k, v in items)
        return b"d" + str(len(obj)).encode() + b":" + parts
    if is_dataclass(obj) and not isinstance(obj, type):
        parts = [type(obj).__name__.encode()]
        for f in fields(obj):
            parts.append(seed_canonical(f.name))
            parts.append(seed_canonical(getattr(obj, f.name)))
        return b"c" + b"".join(parts)
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def seed_digest_of(obj: Any) -> Digest:
    """The seed's ``digest_of``: always re-encode, never memoize."""
    return Digest(hashlib.sha256(seed_canonical(obj)).digest())
