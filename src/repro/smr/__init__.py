"""State-machine replication runtime shared by every protocol."""

from repro.smr.app import KVStore, NullService, StateMachine
from repro.smr.log import CommitEntry, CommitLog, PrepareEntry, PrepareLog
from repro.smr.messages import Request
from repro.smr.runtime import ClusterRuntime, ReplicaBase, SmrClientBase

__all__ = [
    "StateMachine",
    "NullService",
    "KVStore",
    "Request",
    "PrepareEntry",
    "CommitEntry",
    "PrepareLog",
    "CommitLog",
    "ReplicaBase",
    "SmrClientBase",
    "ClusterRuntime",
]
