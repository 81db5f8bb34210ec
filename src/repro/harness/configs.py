"""Replica placement (Table 4) and deployment construction helpers."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.common.config import ClusterConfig, ProtocolName, sites_for


def replica_placement_table(t: int = 1) -> Dict[str, Sequence[str]]:
    """The paper's Table 4 (t=1) or the Section 5.2 layout (t=2):
    ``protocol -> ordered datacenter list`` (index = replica id; the
    replicas beyond the common case are the shaded/passive ones)."""
    return {p.value: sites_for(p, t) for p in ProtocolName}


def common_case_sites(protocol: ProtocolName, t: int) -> Tuple[str, ...]:
    """Datacenters actually involved in the protocol's common case: the
    first :attr:`ClusterConfig.active_count` of its placement."""
    config = paper_config(protocol, t)
    return tuple(config.sites[: config.active_count])


def paper_config(protocol: ProtocolName, t: int = 1,
                 **overrides) -> ClusterConfig:
    """A :class:`ClusterConfig` matching the paper's evaluation defaults."""
    return ClusterConfig(
        t=t,
        protocol=protocol,
        sites=sites_for(protocol, t),
        **overrides,
    )
