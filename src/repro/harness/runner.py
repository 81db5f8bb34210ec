"""Experiment runner: one run = (protocol, deployment, workload, faults)
-> metrics and verdicts.

A :class:`Cell` is one such run as a value; :func:`run_cell` builds its
cluster, arms the checkers and the faults, drives the workload and returns
one :class:`ExperimentResult`.  :func:`run_cells` runs many, ``jobs`` at a
time: one point per client count or offered rate is a Figure 7 or 10 curve
(:func:`sweep`), one cell per ``(protocol, scenario)`` is the conformance
matrix (:mod:`repro.harness.matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.faults.checker import (
    SafetyChecker,
    SafetyViolation,
    check_exactly_once,
)
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.faults.liveness import LivenessChecker, LivenessViolation
from repro.harness.parallel import Outcome, guard_global_rng, parallel_map
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.smr.app import StateMachine
from repro.smr.runtime import ClusterRuntime
from repro.workloads.clients import make_driver

#: Period of the safety checker's anarchy observations (well under every
#: scenario's fault windows).
OBSERVE_PERIOD_MS = 50.0


@dataclass
class ExperimentResult:
    """Metrics and verdicts of one run."""

    protocol: str
    num_clients: int
    throughput_kops: float
    mean_latency_ms: Optional[float]
    committed: int
    cpu_percent_most_loaded: float
    cpu_by_replica: Dict[int, float] = field(default_factory=dict)
    timeouts: int = 0
    #: Open-loop runs only: measured arrival rate and saturation marker.
    offered_load_kops: Optional[float] = None
    saturated: bool = False
    #: ``(window start ms, kops/s)`` per 1 s window with commits, the
    #: outages between them, and replica -> view changes / final view.
    throughput_series: List[Tuple[float, float]] = field(
        default_factory=list)
    recovery_gaps_ms: List[float] = field(default_factory=list)
    view_changes: Dict[int, int] = field(default_factory=dict)
    final_views: Dict[int, int] = field(default_factory=dict)
    #: Client-visible commits over the whole run, warmup included.
    all_commits: int = 0
    #: The checkers' verdicts: total-order violations among benign
    #: replicas, the requests one of them executed twice (``(replica,
    #: rid, first slot, repeat slot)``), whether anarchy was ever
    #: observed, and (when the cell sets a liveness bound) the stalls of
    #: a healthy cluster.
    safety_violations: List[SafetyViolation] = field(default_factory=list)
    repeats: List[Tuple[int, tuple, int, int]] = field(default_factory=list)
    anarchy_observed: bool = False
    liveness_violations: List[LivenessViolation] = field(
        default_factory=list)
    #: replica -> the replicas its fault detector convicted.
    convictions: Dict[int, List[int]] = field(default_factory=dict)
    #: The cluster as the run left it; :func:`run_cells` drops it.
    runtime: Optional[ClusterRuntime] = field(
        default=None, compare=False, repr=False)

    def longest_gap_ms(self) -> float:
        """Longest interval of zero committed throughput."""
        return max(self.recovery_gaps_ms, default=0.0)


@dataclass(frozen=True)
class ExperimentRunner:
    """A deployment: the latency, uplink and crypto cost models and the
    replicated application a cluster is built on (default: the EC2 WAN,
    default uplinks, the measured crypto costs, the null service)."""

    latency_factory: Callable[[int], LatencyModel] = LatencyModel.ec2
    bandwidth_factory: Callable[[], Optional[BandwidthModel]] = \
        BandwidthModel
    cost_model: CostModel = CostModel()
    app_factory: Optional[Callable[[], StateMachine]] = None

    def build(self, config: ClusterConfig, workload: WorkloadConfig,
              seed: int = 0) -> ClusterRuntime:
        """Assemble a cluster for one run."""
        return build_cluster(
            config,
            num_clients=workload.num_clients,
            app_factory=self.app_factory,
            latency=self.latency_factory(seed + workload.seed),
            bandwidth=self.bandwidth_factory(),
            cost_model=self.cost_model,
            client_site=workload.client_site,
            seed=seed + workload.seed,
        )


@dataclass(frozen=True)
class Cell:
    """One run as a value: equal cells run identically.

    ``schedule`` is the faults to inject, ``adversaries`` maps a replica
    id to the factory of the non-crash adversary attached to it (and
    declared non-crash-faulty to the safety checker), and
    ``liveness_bound_ms``, when set, arms the liveness checker with that
    bound.
    """

    config: ClusterConfig
    workload: WorkloadConfig
    schedule: Optional[FaultSchedule] = None
    adversaries: Mapping[int, Callable[[], Any]] = field(
        default_factory=dict)
    deployment: ExperimentRunner = ExperimentRunner()
    seed: int = 0
    liveness_bound_ms: Optional[float] = None


def run_cell(cell: Cell) -> ExperimentResult:
    """Build ``cell``'s cluster, attach its adversaries, arm the checkers
    and the faults, drive the workload and collect metrics and verdicts."""
    workload = cell.workload
    runtime = cell.deployment.build(cell.config, workload, cell.seed)
    for replica_id, factory in sorted(cell.adversaries.items()):
        runtime.replica(replica_id).byzantine = factory()
    safety = SafetyChecker(runtime, non_crash_faulty=cell.adversaries)
    safety.observe_periodically(OBSERVE_PERIOD_MS, workload.duration_ms)
    liveness: Optional[LivenessChecker] = None
    if cell.liveness_bound_ms is not None:
        liveness = LivenessChecker(runtime, bound_ms=cell.liveness_bound_ms)
        liveness.watch(workload.duration_ms)
    if cell.schedule is not None:
        FaultInjector(runtime).arm(cell.schedule)
    driver = make_driver(runtime, workload)
    # Snapshot each replica's CPU busy time when warmup ends, so CPU is
    # reported over the same measured window as throughput and latency
    # (keeps the Figure 8 comparison apples-to-apples).
    busy_at_warmup: Dict[int, float] = {}
    runtime.sim.schedule(
        workload.warmup_ms,
        lambda: busy_at_warmup.update(
            (r.replica_id, r.cpu.busy_us) for r in runtime.replicas))
    driver.run()
    summary = driver.latency.summary()
    measured_ms = workload.duration_ms - workload.warmup_ms
    cpu_by_replica = {
        r.replica_id: r.cpu.utilisation_percent(
            measured_ms,
            busy_since_us=busy_at_warmup.get(r.replica_id, 0.0))
        for r in runtime.replicas
    }
    series = driver.throughput.timeline()
    return ExperimentResult(
        protocol=cell.config.protocol.value,
        num_clients=workload.num_clients,
        throughput_kops=driver.mean_throughput_kops(),
        mean_latency_ms=summary.mean if summary else None,
        committed=driver.throughput.total,
        cpu_percent_most_loaded=max(cpu_by_replica.values(), default=0.0),
        cpu_by_replica=cpu_by_replica,
        timeouts=sum(c.timeouts for c in runtime.clients),
        offered_load_kops=(driver.offered_load_kops()
                           if workload.open_loop else None),
        saturated=getattr(driver, "saturated", False),
        throughput_series=series,
        recovery_gaps_ms=_zero_gaps(
            series, driver.throughput.window_ms, workload),
        view_changes={r.replica_id: r.view_changes_completed
                      for r in runtime.replicas},
        final_views={r.replica_id: r.view for r in runtime.replicas},
        all_commits=sum(len(c.completions) for c in runtime.clients),
        safety_violations=safety.violations(),
        repeats=check_exactly_once(safety.benign_traces()),
        anarchy_observed=safety.anarchy_observed,
        liveness_violations=list(liveness.violations) if liveness else [],
        convictions={r.replica_id: sorted(getattr(r, "detected_faulty", ()))
                     for r in runtime.replicas},
        runtime=runtime,
    )


def run_cells(cells: Sequence[Cell], jobs: int = 1) -> List[Outcome]:
    """One :func:`run_cell` per cell, ``jobs`` at a time.

    Every cell builds its cluster from explicit seeds, so cells can run
    in worker processes; the outcomes come back in cell order, each with
    the record (without its runtime) or the failed cell's traceback, and
    are identical to a sequential run.
    """
    return parallel_map(_run_cell_task, cells, jobs=jobs)


def sweep(cells: Sequence[Cell], jobs: int = 1) -> List[ExperimentResult]:
    """:func:`run_cells` for a curve: a point that fails raises (a sweep
    with a hole is not a curve), naming the failed point."""
    results = []
    for cell, outcome in zip(cells, run_cells(cells, jobs)):
        if not outcome.ok:
            raise RuntimeError(
                f"sweep point (clients={cell.workload.num_clients}, "
                f"rate={cell.workload.offered_load_rps}) failed:\n"
                f"{outcome.error}")
        results.append(outcome.value)
    return results


def _zero_gaps(series: List[Tuple[float, float]], window_ms: float,
               workload: WorkloadConfig) -> List[float]:
    """Lengths of the runs of windows without a commit, from the window
    holding ``warmup_ms`` to the last before ``duration_ms`` -- so an
    outage still open at the end of the run counts, up to the end."""
    occupied = {int(start // window_ms) for start, _ in series}
    windows = range(int(workload.warmup_ms // window_ms),
                    math.ceil(workload.duration_ms / window_ms))
    return [len(list(run)) * window_ms
            for busy, run in groupby(windows, occupied.__contains__)
            if not busy]


@guard_global_rng
def _run_cell_task(cell: Cell) -> ExperimentResult:
    """One cell, shaped for :func:`parallel_map`.

    The guard asserts the cell path never draws from the module-level
    ``random`` stream -- forked workers inherit that state, so a global
    draw would break cross-process determinism.  The runtime stays
    behind: it cannot cross a process boundary, and a matrix holding
    every cell's cluster would hold them all at once.
    """
    return replace(run_cell(cell), runtime=None)
