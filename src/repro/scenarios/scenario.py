"""Declarative fault scenarios.

A :class:`Scenario` bundles everything one conformance experiment needs:

* a **fault schedule** (built per cluster config, since replica counts and
  names differ across protocols),
* a **workload shape** (clients, request size, duration),
* optional **non-crash adversaries** (XPaxos replicas only -- the only
  protocol in the repo that models Byzantine behaviour),
* the **invariants** the run must satisfy: total order via
  :class:`~repro.faults.checker.SafetyChecker`, commit progress via
  :class:`~repro.faults.liveness.LivenessChecker`, and optional
  expectations about anarchy and fault detection.

Scenarios are pure descriptions: the matrix runner in
:mod:`repro.harness.matrix` executes a ``(protocol, scenario)`` cell
deterministically and grades it.  The XFT guarantees (Definitions 1-3 of
the paper) are conditional on which faults occur, so each scenario also
declares which protocols it is *in scope* for: a leader crash is a
liveness test for protocols with failover (XPaxos, Paxos) but would merely
prove that a fixed-leader baseline stalls, which the paper already grants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Mapping, Optional

from repro.common.config import ClusterConfig, ProtocolName
from repro.faults.injector import FaultSchedule

#: Builds the schedule for one concrete cluster configuration.
ScheduleFactory = Callable[[ClusterConfig], FaultSchedule]

#: Builds one adversary instance (fresh per run; adversaries are stateful).
AdversaryFactory = Callable[[], Any]

#: Protocols whose replicas consult a ``byzantine`` adversary hook.  On any
#: other protocol an attached adversary would be silently inert -- and a
#: cell could report anarchy for a run in which no non-crash fault ever
#: happened -- so scenarios with adversaries must scope within this set.
ADVERSARY_PROTOCOLS = frozenset({ProtocolName.XPAXOS})


@dataclass(frozen=True)
class Scenario:
    """One named, self-contained fault scenario.

    Attributes:
        name: unique identifier (kebab-case; the CLI selects by it).
        description: one-line human summary.
        schedule: fault-schedule factory, called with the resolved
            :class:`ClusterConfig` of the cell being run.
        protocols: protocols the scenario applies to (None = all five).
            Out-of-scope cells are reported as ``skipped``.
        duration_ms / warmup_ms / num_clients / request_size: workload.
        adversaries: ``replica id -> adversary factory`` attached before
            the run; their ids are declared non-crash-faulty to the
            safety checker.  Only meaningful for XPaxos.
        config_overrides: fields replaced on the cell's base
            :class:`ClusterConfig` (e.g. ``use_fault_detection=True``).
        one_way_ms: uniform one-way network latency of the cell.
        expect_anarchy: the scenario intentionally crosses the anarchy
            boundary (Definition 2); its cells are graded
            ``expected-violation`` when anarchy is observed and ``fail``
            when it is not -- safety violations are then admissible.
        expect_detection: every adversary must be convicted by at least
            one benign replica (XPaxos fault detection, Section 4.4).
        convicted: when set, exactly these replica ids must end the run
            convicted by the benign replicas' fault detectors -- asserting
            *which* replica is blamed, not merely that someone is.
        liveness_bound_ms: tolerated commit-free window while healthy;
            None leaves the liveness checker unarmed.
        min_committed: floor on total client-visible commits.
        offered_load_rps: when set, the cell runs the open-loop cohort
            driver at this aggregate arrival rate instead of the closed
            loop; ``cohorts`` arrival streams share the rate.
    """

    name: str
    description: str
    schedule: ScheduleFactory = lambda config: FaultSchedule()
    protocols: Optional[FrozenSet[ProtocolName]] = None
    duration_ms: float = 8_000.0
    warmup_ms: float = 300.0
    num_clients: int = 3
    request_size: int = 64
    adversaries: Mapping[int, AdversaryFactory] = \
        field(default_factory=dict)
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    one_way_ms: float = 1.0
    expect_anarchy: bool = False
    expect_detection: bool = False
    convicted: Optional[FrozenSet[int]] = None
    liveness_bound_ms: Optional[float] = 2_500.0
    min_committed: int = 1
    offered_load_rps: Optional[float] = None
    cohorts: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.duration_ms <= self.warmup_ms:
            raise ValueError("duration_ms must exceed warmup_ms")
        if self.adversaries and (
                self.protocols is None
                or not self.protocols <= ADVERSARY_PROTOCOLS):
            raise ValueError(
                f"scenario {self.name!r} attaches adversaries; scope it "
                f"within the adversary-capable protocols "
                f"{sorted(p.value for p in ADVERSARY_PROTOCOLS)}")

    def applies_to(self, protocol: ProtocolName) -> bool:
        """Is a ``(protocol, self)`` cell in scope?"""
        return self.protocols is None or protocol in self.protocols
