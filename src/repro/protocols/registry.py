"""Factory wiring a full cluster (replicas + clients) for any protocol.

The harness and the examples never instantiate protocol classes directly;
they describe the deployment with :class:`ClusterConfig` and call
:func:`build_cluster`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.common.config import ClusterConfig, ProtocolName, sites_for
from repro.common.errors import ConfigurationError
from repro.crypto.costs import CostModel
from repro.crypto.primitives import KeyStore
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.protocols.base import QuorumClient
from repro.sim.core import Simulator
from repro.smr.app import NullService, StateMachine
from repro.smr.runtime import ClusterRuntime, collector_held

def protocol_classes(protocol: ProtocolName) -> Tuple[type, type]:
    """``(replica class, client class)`` of ``protocol``.

    Each protocol's modules are imported here, when the protocol is
    first built, so a run loads (and registers the wire classes of)
    only the protocols it builds.
    """
    if protocol is ProtocolName.XPAXOS:
        from repro.protocols.xpaxos.client import XPaxosClient
        from repro.protocols.xpaxos.replica import XPaxosReplica
        return XPaxosReplica, XPaxosClient
    if protocol is ProtocolName.PAXOS:
        from repro.protocols.paxos.replica import PaxosReplica
        return PaxosReplica, QuorumClient
    if protocol is ProtocolName.PBFT:
        from repro.protocols.pbft.replica import PbftReplica
        return PbftReplica, QuorumClient
    if protocol is ProtocolName.ZYZZYVA:
        from repro.protocols.zyzzyva.client import ZyzzyvaClient
        from repro.protocols.zyzzyva.replica import ZyzzyvaReplica
        return ZyzzyvaReplica, ZyzzyvaClient
    if protocol is ProtocolName.ZAB:
        from repro.protocols.zab.replica import ZabReplica
        return ZabReplica, QuorumClient
    raise ConfigurationError(f"unknown protocol {protocol!r}")


def build_cluster(
    config: ClusterConfig,
    num_clients: int,
    app_factory: Optional[Callable[[], StateMachine]] = None,
    sim: Optional[Simulator] = None,
    latency: Optional[LatencyModel] = None,
    bandwidth: Optional[BandwidthModel] = None,
    cost_model: Optional[CostModel] = None,
    client_site: Optional[str] = None,
    seed: int = 0,
) -> ClusterRuntime:
    """Assemble a ready-to-run cluster.

    Args:
        config: the deployment description. When ``config.sites`` is None,
            the paper's Table 4 / Section 5.2 placement for this protocol
            and ``t`` is used.
        num_clients: how many closed-loop clients to attach.
        app_factory: replicated application (default: the null service).
        sim: optionally share a simulator (tests compose several clusters).
        latency: network latency model (default: uniform 1 ms LAN).
        bandwidth: optional uplink model.
        cost_model: CPU costs for crypto (default: free).
        client_site: datacenter of the clients (default: primary's site,
            as in the paper's evaluation).
        seed: experiment seed.

    Returns:
        A :class:`ClusterRuntime` with replicas and clients attached.
    """
    if config.n is None:
        raise ConfigurationError("config.n unresolved")
    sim = sim or Simulator()
    sites: Sequence[str]
    if config.sites is not None:
        sites = config.sites
    else:
        try:
            sites = sites_for(config.protocol, config.t)
        except ConfigurationError:
            sites = ["DC0"] * config.n
    if latency is None:
        latency = LatencyModel.uniform(set(sites) | {client_site or sites[0]},
                                       one_way_ms=1.0, seed=seed)
    network = Network(sim, latency, bandwidth=bandwidth)
    keystore = KeyStore()
    runtime = ClusterRuntime(config, sim, network, keystore)

    replica_cls, client_cls = protocol_classes(config.protocol)
    factory = app_factory or NullService
    with collector_held():
        for replica_id in range(config.n):
            replica = replica_cls(
                replica_id, config, sim, network, keystore, factory,
                site=sites[replica_id], cost_model=cost_model)
            runtime.add_replica(replica)

        # The paper places clients in the primary's datacenter
        # (Section 5.1.3).
        at_site = client_site or sites[0]
        for client_id in range(num_clients):
            client = client_cls(client_id, config, sim, network, keystore,
                                site=at_site, cost_model=cost_model)
            runtime.add_client(client)
    return runtime
