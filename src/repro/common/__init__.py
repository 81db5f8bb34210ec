"""Shared identifiers, configuration dataclasses, and error types."""

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.common.errors import (
    ConfigurationError,
    ProtocolViolation,
    ReproError,
)
from repro.common.ids import ClientId, ReplicaId, RequestId, ViewNumber

__all__ = [
    "ClusterConfig",
    "ProtocolName",
    "WorkloadConfig",
    "ReproError",
    "ConfigurationError",
    "ProtocolViolation",
    "ClientId",
    "ReplicaId",
    "RequestId",
    "ViewNumber",
]
