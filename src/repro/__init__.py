"""Reproduction of "XFT: Practical Fault Tolerance Beyond Crashes" (OSDI 2016).

This package provides:

* :mod:`repro.sim` -- a deterministic discrete-event simulator (the substrate
  replacing the paper's EC2 testbed wall clock).
* :mod:`repro.net` -- a WAN network model calibrated to the paper's Table 3
  EC2 round-trip latency matrix, with partition and asynchrony injection.
* :mod:`repro.crypto` -- simulated digital signatures / MACs with a CPU cost
  model calibrated to RSA1024 / HMAC-SHA1 (used for the Figure 8 CPU study).
* :mod:`repro.smr` -- the state-machine-replication runtime (replicas,
  clients, applications such as a null service and a key-value store).
* :mod:`repro.protocols` -- XPaxos (the paper's contribution) plus the
  baselines it is evaluated against: WAN-optimized Paxos, speculative PBFT,
  Zyzzyva, and Zab.
* :mod:`repro.faults` -- fault injection (crashes, data loss, equivocation,
  network partitions) used for the under-faults experiment (Figure 9) and the
  safety/fault-detection test suites.
* :mod:`repro.scenarios` -- declarative fault scenarios (schedule +
  workload + invariants) and the built-in conformance library run by the
  ``repro scenarios`` matrix.
* :mod:`repro.reliability` -- the closed-form reliability analysis of
  Section 6 (nines of consistency / availability; Tables 1 and 5-8).
* :mod:`repro.zk` -- a ZooKeeper-like coordination service used by the
  macro-benchmark (Figure 10).
* :mod:`repro.workloads` and :mod:`repro.harness` -- benchmark workload
  generators and the experiment runner that regenerates every table and
  figure of the paper's evaluation.
"""

from typing import Any

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.sim.core import Simulator
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.reliability.models import (
    nines_of,
    p_bft_available,
    p_bft_consistent,
    p_cft_available,
    p_cft_consistent,
    p_xft_available,
    p_xft_consistent,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "ProtocolName",
    "WorkloadConfig",
    "Scenario",
    "Simulator",
    "Network",
    "LatencyModel",
    "nines_of",
    "p_cft_consistent",
    "p_cft_available",
    "p_bft_consistent",
    "p_bft_available",
    "p_xft_consistent",
    "p_xft_available",
    "__version__",
]


def __getattr__(name: str) -> Any:
    """``repro.Scenario``, imported on first use: every run needs the
    other names, but only a scenario run needs the fault schedules."""
    if name == "Scenario":
        from repro.scenarios.scenario import Scenario
        return Scenario
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
