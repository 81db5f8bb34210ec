"""Factory wiring a full cluster (replicas + clients) for any protocol.

The harness and the examples never instantiate protocol classes directly;
they describe the deployment with :class:`ClusterConfig` and call
:func:`build_cluster`.
"""

from __future__ import annotations

import gc
from typing import Callable, Optional, Sequence

from repro.common.config import ClusterConfig, ProtocolName, sites_for
from repro.common.errors import ConfigurationError
from repro.crypto.costs import CostModel
from repro.crypto.primitives import KeyStore
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.protocols.base import QuorumClient
from repro.protocols.paxos import PaxosReplica
from repro.protocols.pbft import PbftReplica
from repro.protocols.xpaxos import XPaxosClient, XPaxosReplica
from repro.protocols.zab import ZabReplica
from repro.protocols.zyzzyva import ZyzzyvaClient, ZyzzyvaReplica
from repro.sim.core import Simulator
from repro.smr.app import NullService, StateMachine
from repro.smr.runtime import ClusterRuntime

#: ``protocol -> (replica class, client class)``.
PROTOCOL_BUILDERS = {
    ProtocolName.XPAXOS: (XPaxosReplica, XPaxosClient),
    ProtocolName.PAXOS: (PaxosReplica, QuorumClient),
    ProtocolName.PBFT: (PbftReplica, QuorumClient),
    ProtocolName.ZYZZYVA: (ZyzzyvaReplica, ZyzzyvaClient),
    ProtocolName.ZAB: (ZabReplica, QuorumClient),
}


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

    replica_cls, client_cls = PROTOCOL_BUILDERS[config.protocol]
    factory = app_factory or NullService
    # Every node built below lives as long as the cluster, so a cyclic
    # collection in here can free none of it -- but a *full* collection
    # that happens to come due mid-build bills the previous cell's
    # garbage (25-55 ms) to this cell's set-up, and whether it does
    # flips with any change to allocation counts elsewhere (the e2e
    # ledger's ``setup_s`` on ``wan-open-ladder`` moved +-20% on that
    # alone).  Hold the collector until the cluster stands.
    collecting = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if collecting:
            gc.enable()
    return runtime
