"""Configuration dataclasses shared by the SMR runtime and the harness.

The defaults follow the paper's evaluation setup (Section 5): ``t = 1``,
batch size 20, :math:`\\Delta` = 1.25 s, 1 kB requests with empty replies
(the "1/0" microbenchmark).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.common.errors import ConfigurationError

#: Network-fault timeout from Section 5.1.1 -- the paper measures that the
#: EC2 round trip stays under 2.5 s 99.99% of the time and therefore sets
#: ``Delta = 2.5 / 2`` seconds.  Our simulator works in milliseconds.
DEFAULT_DELTA_MS = 1250.0

#: Batch size used by every protocol in the paper's evaluation (Section 5.1.2).
DEFAULT_BATCH_SIZE = 20

#: Checkpoint period (number of committed requests between checkpoints).
DEFAULT_CHECKPOINT_PERIOD = 128


class ProtocolName(str, enum.Enum):
    """The five replication protocols evaluated by the paper."""

    XPAXOS = "xpaxos"
    PAXOS = "paxos"
    PBFT = "pbft"
    ZYZZYVA = "zyzzyva"
    ZAB = "zab"

    @property
    def replicas_for(self) -> "ReplicaCount":
        """Resource requirement class of this protocol."""
        if self in (ProtocolName.PBFT, ProtocolName.ZYZZYVA):
            return ReplicaCount.BFT
        return ReplicaCount.CFT


class ReplicaCount(enum.Enum):
    """How many replicas a protocol class needs to tolerate ``t`` faults."""

    CFT = "2t+1"
    BFT = "3t+1"

    def n(self, t: int) -> int:
        """Total replica count for fault threshold ``t``."""
        if self is ReplicaCount.CFT:
            return 2 * t + 1
        return 3 * t + 1


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of a replicated cluster.

    Attributes:
        t: number of tolerated faults.
        n: total number of replicas (defaults to the protocol-appropriate
            ``2t+1`` or ``3t+1`` when omitted).
        protocol: which replication protocol the cluster runs.
        delta_ms: the network-fault bound :math:`\\Delta` in milliseconds.
        batch_size: maximum number of requests batched into one ordering slot.
        batch_timeout_ms: how long the primary waits to fill a batch before
            sending a partial one.
        checkpoint_period: committed requests between checkpoints.
        sites: optional datacenter name per replica (index-aligned); used by
            the geo-replicated latency model.
        use_fault_detection: enable the XPaxos FD mechanism (Section 4.4).
        use_lazy_replication: propagate commit logs to passive replicas
            (Section 4.5.2), which shortens view changes.
        pipeline_depth: number of batches the primary may have in flight
            (issued, not yet executed); a full window parks the next
            batch (``smr/sequencer.py``).  It bounds capacity at
            ``pipeline_depth x batch_size`` requests per round trip and
            what a view change abandons when a follower falls silent.
            16 keeps a WAN leader's timer batches from bunching at the
            start of a round trip (``docs/workloads.md``, "Why a 16-slot
            window").
        request_retransmit_ms: the cap of the client's retransmission
            timeout, and its value before the client's first completed
            request; the timeout itself is estimated from the client's
            round trips (``SmrClientBase``).  On expiry a client re-sends
            (XPaxos: RE-SEND to every active replica, Algorithm 4; the
            baselines: to every replica) and then waits this long again,
            XPaxos twice this long from the second expiry.  It is also
            how long a baseline follower lets a forwarded request sit
            before it starts an election.  What suspects a leader is the
            replicas' own timers: that one, and XPaxos's Algorithm 4 and
            progress watch, derived from ``delta_ms`` and
            ``batch_timeout_ms`` (``commit_bound_ms``).
        view_change_timeout_ms: how long a view change (a baseline
            campaign) may take before the view it installs is itself
            suspected (Section 4.3.2 (iii)), and the cadence at which an
            XPaxos replica passive in that view re-sends its VIEW-CHANGE.
            In XPaxos it no longer bounds a view whose group holds a
            silent member -- the 2 * ``delta_ms`` gather abandons that
            one -- only the cases the gather cannot see: a member that
            sent its VIEW-CHANGE and then nothing, a NEW-VIEW that never
            comes.
    """

    t: int = 1
    protocol: ProtocolName = ProtocolName.XPAXOS
    n: Optional[int] = None
    delta_ms: float = DEFAULT_DELTA_MS
    batch_size: int = DEFAULT_BATCH_SIZE
    batch_timeout_ms: float = 5.0
    checkpoint_period: int = DEFAULT_CHECKPOINT_PERIOD
    sites: Optional[Sequence[str]] = None
    use_fault_detection: bool = False
    use_lazy_replication: bool = True
    pipeline_depth: int = 16
    request_retransmit_ms: float = 4 * DEFAULT_DELTA_MS
    view_change_timeout_ms: float = 4 * DEFAULT_DELTA_MS

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ConfigurationError(f"t must be >= 1, got {self.t}")
        if self.n is None:
            default_n = ReplicaCount(self.protocol.replicas_for).n(self.t)
            object.__setattr__(self, "n", default_n)
        minimum = ReplicaCount(self.protocol.replicas_for).n(self.t)
        if self.n < minimum:
            raise ConfigurationError(
                f"{self.protocol.value} with t={self.t} needs at least "
                f"{minimum} replicas, got n={self.n}"
            )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        # Bounds read "not x > 0" so that NaN fails them too.
        for name in ("delta_ms", "batch_timeout_ms", "request_retransmit_ms",
                     "view_change_timeout_ms"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.checkpoint_period < 1:
            raise ConfigurationError("checkpoint_period must be >= 1")
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        if self.sites is not None and len(self.sites) < self.n:
            raise ConfigurationError(
                f"sites lists {len(self.sites)} datacenters but the cluster "
                f"has n={self.n} replicas"
            )

    @property
    def quorum(self) -> int:
        """Majority quorum size ``floor(n/2) + 1``."""
        assert self.n is not None
        return self.n // 2 + 1

    @property
    def active_count(self) -> int:
        """Replicas involved in the common case.

        XPaxos, Paxos: ``t + 1``; speculative PBFT: ``2t + 1``; Zyzzyva and
        Zab: all replicas.
        """
        if self.protocol in (ProtocolName.XPAXOS, ProtocolName.PAXOS):
            return self.t + 1
        if self.protocol is ProtocolName.PBFT:
            return 2 * self.t + 1
        assert self.n is not None
        return self.n

    @property
    def reply_quorum(self) -> int:
        """Matching replies that commit a request at a client: Paxos,
        Zab 1 (the leader's); Zyzzyva's fast path ``n``; else ``t + 1``."""
        if self.protocol in (ProtocolName.PAXOS, ProtocolName.ZAB):
            return 1
        if self.protocol is ProtocolName.ZYZZYVA:
            assert self.n is not None
            return self.n
        return self.t + 1


@dataclass(frozen=True)
class WorkloadConfig:
    """A microbenchmark workload (Section 5.1.3).

    The paper's "1/0" benchmark is 1 kB requests and 0 kB replies; "4/0" is
    4 kB requests.  Two driving models are supported:

    * **Closed loop** (the default, the paper's setup): each of
      ``num_clients`` clients waits for the reply to its current request
      before issuing the next one.
    * **Open loop** (``offered_load_rps`` set): ``cohorts`` simulated
      processes each model ``num_clients / cohorts`` logical clients,
      issuing requests by Poisson arrival draws at the configured
      aggregate rate regardless of completions -- the model that reveals
      a server's real throughput ceiling.
    """

    num_clients: int = 100
    request_size: int = 1024
    duration_ms: float = 60_000.0
    warmup_ms: float = 5_000.0
    client_site: Optional[str] = None
    seed: int = 0
    #: Aggregate open-loop arrival rate in requests/second; None selects
    #: the closed-loop driver.
    offered_load_rps: Optional[float] = None
    #: Number of cohort processes sharing the open-loop arrival stream.
    cohorts: int = 4

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        # Bounds read "not x >= 0" so that NaN fails them too.
        if type(self.request_size) is not int or not self.request_size >= 0:
            raise ConfigurationError("request_size must be an int >= 0")
        if not self.duration_ms > 0:
            raise ConfigurationError("duration_ms must be positive")
        if not 0 <= self.warmup_ms < self.duration_ms:
            raise ConfigurationError(
                "warmup_ms must be in [0, duration_ms)"
            )
        if self.offered_load_rps is not None \
                and not self.offered_load_rps > 0:
            raise ConfigurationError("offered_load_rps must be positive")
        if self.cohorts < 1:
            raise ConfigurationError("cohorts must be >= 1")

    @property
    def open_loop(self) -> bool:
        """True when this workload selects the open-loop cohort driver."""
        return self.offered_load_rps is not None


#: Datacenter layout used throughout Section 5 for ``t = 1`` (Table 4): the
#: primary and clients sit in US-West (CA), the follower in US-East (VA), the
#: XPaxos passive replica in Tokyo (JP) and the PBFT passive one in Europe.
T1_SITES: Dict[str, Sequence[str]] = {
    "xpaxos": ("CA", "VA", "JP"),
    "paxos": ("CA", "VA", "JP"),
    "zab": ("CA", "VA", "JP"),
    "pbft": ("CA", "VA", "JP", "EU"),
    "zyzzyva": ("CA", "VA", "JP", "EU"),
}

#: Datacenter layout for the ``t = 2`` fault-scalability experiment
#: (Section 5.2): CA, OR, VA, JP, EU, AU, SG.
T2_SITES: Dict[str, Sequence[str]] = {
    "xpaxos": ("CA", "OR", "VA", "JP", "EU"),
    "paxos": ("CA", "OR", "VA", "JP", "EU"),
    "zab": ("CA", "OR", "VA", "JP", "EU"),
    "pbft": ("CA", "OR", "VA", "JP", "EU", "AU", "SG"),
    "zyzzyva": ("CA", "OR", "VA", "JP", "EU", "AU", "SG"),
}


def sites_for(protocol: ProtocolName, t: int) -> Sequence[str]:
    """Return the paper's datacenter placement for ``protocol`` at ``t``.

    Raises:
        ConfigurationError: if the paper has no placement for this ``t``
            (only ``t = 1`` and ``t = 2`` are evaluated).
    """
    table = {1: T1_SITES, 2: T2_SITES}.get(t)
    if table is None:
        raise ConfigurationError(
            f"the paper's evaluation only places replicas for t=1 and t=2, "
            f"got t={t}"
        )
    return table[protocol.value]
