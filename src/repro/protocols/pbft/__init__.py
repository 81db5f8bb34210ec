"""Speculative PBFT (the paper's first BFT baseline, Figure 6a)."""

from repro.protocols.pbft.replica import PbftReplica

__all__ = ["PbftReplica"]
