"""Experiment runner: one run = (protocol, deployment, workload, faults)
-> metrics.

``ExperimentRunner.run_point`` executes one closed- or open-loop benchmark,
optionally under a :class:`~repro.faults.injector.FaultSchedule` (Figure
9), and returns an :class:`ExperimentResult`.  ``run_points`` runs one
point per workload -- one per client count or offered rate is a Figure 7
or 10 curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.harness.parallel import guard_global_rng, parallel_map
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.smr.app import StateMachine
from repro.smr.runtime import ClusterRuntime
from repro.workloads.clients import make_driver


@dataclass
class ExperimentResult:
    """Metrics of one benchmark run."""

    protocol: str
    num_clients: int
    throughput_kops: float
    mean_latency_ms: Optional[float]
    p95_latency_ms: Optional[float]
    committed: int
    cpu_percent_most_loaded: float
    cpu_by_replica: Dict[int, float] = field(default_factory=dict)
    timeouts: int = 0
    #: Open-loop runs only: measured arrival rate and saturation marker.
    offered_load_kops: Optional[float] = None
    saturated: bool = False
    #: Open-loop runs only: commits whose latency sample had to be
    #: dropped because no arrival stamp matched (duplicate/late commits
    #: after a retransmit).  Nonzero values mean the latency summary
    #: undercounts; they should stay rare.
    dropped_samples: int = 0
    #: ``(window start ms, kops/s)`` per 1 s window with commits, the
    #: outages between them, and replica -> view changes / final view.
    throughput_series: List[Tuple[float, float]] = field(
        default_factory=list)
    recovery_gaps_ms: List[float] = field(default_factory=list)
    view_changes: Dict[int, int] = field(default_factory=dict)
    final_views: Dict[int, int] = field(default_factory=dict)

    def longest_gap_ms(self) -> float:
        """Longest interval of zero committed throughput."""
        return max(self.recovery_gaps_ms, default=0.0)

    def __str__(self) -> str:
        lat = (f"{self.mean_latency_ms:.1f}"
               if self.mean_latency_ms is not None else "n/a")
        return (f"{self.protocol:>8} clients={self.num_clients:>4} "
                f"tput={self.throughput_kops:7.3f} kops/s "
                f"lat={lat:>8} ms cpu={self.cpu_percent_most_loaded:6.1f}%")


class ExperimentRunner:
    """Builds clusters and runs benchmarks on them."""

    def __init__(
        self,
        latency_factory: Optional[Callable[[int], LatencyModel]] = None,
        bandwidth_factory: Optional[Callable[[], BandwidthModel]] = None,
        cost_model: Optional[CostModel] = None,
        app_factory: Optional[Callable[[], StateMachine]] = None,
        seed: int = 0,
    ) -> None:
        self.latency_factory = latency_factory or (
            lambda seed: LatencyModel.ec2(seed=seed))
        self.bandwidth_factory = bandwidth_factory or BandwidthModel
        self.cost_model = cost_model or CostModel()
        self.app_factory = app_factory
        self.seed = seed

    # ------------------------------------------------------------------
    def build(self, config: ClusterConfig,
              workload: WorkloadConfig) -> ClusterRuntime:
        """Assemble a cluster for one run."""
        return build_cluster(
            config,
            num_clients=workload.num_clients,
            app_factory=self.app_factory,
            latency=self.latency_factory(self.seed + workload.seed),
            bandwidth=self.bandwidth_factory(),
            cost_model=self.cost_model,
            client_site=workload.client_site,
            seed=self.seed + workload.seed,
        )

    def run_point(self, config: ClusterConfig, workload: WorkloadConfig,
                  schedule: Optional[FaultSchedule] = None
                  ) -> ExperimentResult:
        """Run one benchmark (closed or open loop, under ``schedule``'s
        faults if given) and collect metrics."""
        runtime = self.build(config, workload)
        driver = make_driver(runtime, workload)
        if schedule is not None:
            FaultInjector(runtime).arm(schedule)
        # Snapshot each replica's CPU busy time when warmup ends, so CPU is
        # reported over the same measured window as throughput and latency
        # (keeps the Figure 8 comparison apples-to-apples).
        busy_at_warmup: Dict[int, float] = {}
        runtime.sim.call_at(
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
        most_loaded = max(cpu_by_replica.values()) if cpu_by_replica else 0.0
        timeouts = sum(c.timeouts for c in runtime.clients)
        series = driver.throughput.timeline()
        return ExperimentResult(
            protocol=config.protocol.value,
            num_clients=workload.num_clients,
            throughput_kops=driver.mean_throughput_kops(),
            mean_latency_ms=summary.mean if summary else None,
            p95_latency_ms=summary.p95 if summary else None,
            committed=driver.throughput.total,
            cpu_percent_most_loaded=most_loaded,
            cpu_by_replica=cpu_by_replica,
            timeouts=timeouts,
            offered_load_kops=(driver.offered_load_kops()
                               if workload.open_loop else None),
            saturated=getattr(driver, "saturated", False),
            dropped_samples=getattr(driver, "dropped_samples", 0),
            throughput_series=series,
            recovery_gaps_ms=_zero_gaps(
                series, driver.throughput.window_ms, workload),
            view_changes={r.replica_id: r.view_changes_completed
                          for r in runtime.replicas},
            final_views={r.replica_id: r.view for r in runtime.replicas},
        )

    def run_points(
        self,
        config: ClusterConfig,
        workloads: Sequence[WorkloadConfig],
        jobs: int = 1,
    ) -> List[ExperimentResult]:
        """One :meth:`run_point` per workload, ``jobs`` at a time.

        Every point builds its own cluster from explicit seeds, so
        points can run in worker processes; results come back in
        workload order and are identical to a sequential run.  A point
        that fails raises (a sweep with a hole is not a curve), naming
        the failed point.
        """
        outcomes = parallel_map(
            _run_point_task,
            [(self, config, workload) for workload in workloads],
            jobs=jobs)
        results = []
        for workload, outcome in zip(workloads, outcomes):
            if not outcome.ok:
                raise RuntimeError(
                    f"sweep point (clients={workload.num_clients}, "
                    f"rate={workload.offered_load_rps}) failed:\n"
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
def _run_point_task(task) -> ExperimentResult:
    """One sweep point, shaped for :func:`parallel_map`.

    The guard asserts the point path never draws from the module-level
    ``random`` stream -- forked workers inherit that state, so a global
    draw would break cross-process determinism.
    """
    runner, config, workload = task
    return runner.run_point(config, workload)
