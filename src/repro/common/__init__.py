"""Shared configuration dataclasses and error types."""

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.common.errors import (
    ConfigurationError,
    ProtocolViolation,
    ReproError,
)

__all__ = [
    "ClusterConfig",
    "ProtocolName",
    "WorkloadConfig",
    "ReproError",
    "ConfigurationError",
    "ProtocolViolation",
]
