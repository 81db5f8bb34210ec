"""Per-link bandwidth model (serialization delay + queueing).

The paper repeatedly notes that in the WAN "the network is the bottleneck,
with high link latency and relatively low, heterogeneous link bandwidth"
(Section 4.1), and the ZooKeeper macro-benchmark's explanation hinges on the
*uplink of the leader* being the bottleneck (Section 5.5: Zab's leader sends
to 2t replicas, XPaxos's to t followers, hence XPaxos peaks higher).

We model each node's WAN uplink as a FIFO serializer with finite rate: a
message of ``size`` bytes occupies the uplink for ``size / rate`` virtual
milliseconds and queues behind previously sent messages.  Intra-site traffic
is not charged.
"""

from __future__ import annotations

from typing import Dict

#: Default WAN uplink of one mid-range EC2 VM, bytes per virtual millisecond.
#: 40 MB/s ~= 320 Mbit/s, representative of the paper's instance class.
DEFAULT_UPLINK_BYTES_PER_MS = 40_000.0


class _Uplink:
    __slots__ = ("rate", "free_at", "bytes_sent")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.free_at = 0.0
        self.bytes_sent = 0


class BandwidthModel:
    """Tracks uplink occupancy per named node.

    ``serialize(node, size, now)`` returns the virtual time at which the last
    byte of the message leaves the node, advancing the node's queue.
    """

    def __init__(self,
                 default_rate: float = DEFAULT_UPLINK_BYTES_PER_MS) -> None:
        if default_rate <= 0:
            raise ValueError("uplink rate must be positive")
        self._default_rate = default_rate
        self._uplinks: Dict[str, _Uplink] = {}

    def _uplink(self, node: str) -> _Uplink:
        link = self._uplinks.get(node)
        if link is None:
            link = _Uplink(rate=self._default_rate)
            self._uplinks[node] = link
        return link

    def serialize(self, node: str, size_bytes: int, now: float) -> float:
        """Queue a ``size_bytes`` message on ``node``'s uplink at ``now``.

        Returns:
            Departure time of the message's last byte (>= now).
        """
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        link = self._uplinks.get(node)
        if link is None:
            link = _Uplink(rate=self._default_rate)
            self._uplinks[node] = link
        free_at = link.free_at
        start = now if now > free_at else free_at
        departure = start + size_bytes / link.rate
        link.free_at = departure
        link.bytes_sent += size_bytes
        return departure

    def bytes_sent(self, node: str) -> int:
        """Total bytes this node has pushed onto its uplink."""
        return self._uplink(node).bytes_sent

    def backlog_ms(self, node: str, now: float) -> float:
        """How far in the future the node's uplink is booked."""
        return max(0.0, self._uplink(node).free_at - now)

    def reset(self) -> None:
        """Clear all queues and counters, returning the model to its
        just-built state (for reuse across back-to-back runs).

        Both the byte counters *and* the booked uplink time are cleared:
        leaving ``free_at`` in the future would make the next run's traffic
        queue behind the previous run's backlog.  Note this is *not* called
        at the warmup boundary of a single run -- there the backlog is real
        steady-state behavior and clearing it would falsify the model; the
        harness excludes warmup in its recorders instead.
        """
        for link in self._uplinks.values():
            link.bytes_sent = 0
            link.free_at = 0.0
