"""WAN-optimized multi-Paxos (the paper's CFT baseline, Figure 6c)."""

from repro.protocols.paxos.replica import PaxosReplica

__all__ = ["PaxosReplica"]
