"""Zab: ZooKeeper's native atomic broadcast (baseline for Figure 10)."""

from repro.protocols.zab.replica import ZabReplica

__all__ = ["ZabReplica"]
