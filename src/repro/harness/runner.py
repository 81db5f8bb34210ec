"""Experiment runner: one run = (protocol, deployment, workload) -> metrics.

``ExperimentRunner.run_point`` executes a single closed-loop benchmark and
returns an :class:`ExperimentResult`; ``sweep_clients`` regenerates a
latency-vs-throughput curve by increasing the number of closed-loop clients,
exactly how the paper's Figures 7 and 10 are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.harness.parallel import guard_global_rng, parallel_map
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.sim.core import Simulator
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

    def __str__(self) -> str:
        lat = (f"{self.mean_latency_ms:.1f}"
               if self.mean_latency_ms is not None else "n/a")
        return (f"{self.protocol:>8} clients={self.num_clients:>4} "
                f"tput={self.throughput_kops:7.3f} kops/s "
                f"lat={lat:>8} ms cpu={self.cpu_percent_most_loaded:6.1f}%")


@dataclass
class SweepPoint:
    """One point of a latency-vs-throughput curve."""

    num_clients: int
    result: ExperimentResult


class ExperimentRunner:
    """Builds clusters and runs closed-loop benchmarks on them."""

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

    def run_point(self, config: ClusterConfig,
                  workload: WorkloadConfig) -> ExperimentResult:
        """Run one benchmark (closed or open loop) and collect metrics."""
        runtime = self.build(config, workload)
        driver = make_driver(runtime, workload)
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
        timeouts = sum(getattr(c, "timeouts", 0) for c in runtime.clients)
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

    def sweep_clients(
        self,
        config: ClusterConfig,
        client_counts: Sequence[int],
        base_workload: WorkloadConfig,
        jobs: int = 1,
    ) -> List[SweepPoint]:
        """Latency-vs-throughput curve: one run per client count."""
        # dataclasses.replace keeps every other workload field intact,
        # so fields added to WorkloadConfig later are never silently
        # dropped from sweeps.
        workloads = [replace(base_workload, num_clients=count,
                             seed=base_workload.seed + count)
                     for count in client_counts]
        results = self.run_points(config, workloads, jobs=jobs)
        return [SweepPoint(count, result)
                for count, result in zip(client_counts, results)]

    def sweep_offered_load(
        self,
        config: ClusterConfig,
        offered_rps: Sequence[float],
        base_workload: WorkloadConfig,
        jobs: int = 1,
    ) -> List[SweepPoint]:
        """Open-loop throughput curve: one run per offered arrival rate.

        The client count stays fixed (it sizes the channel pool); the
        x-axis is the offered load, which -- unlike closed-loop client
        counts -- can be pushed orders of magnitude past the protocol's
        capacity to expose the throughput plateau.
        """
        # Unlike sweep_clients, the seed stays fixed: every rate point
        # sees the same network draw, so curve differences are pure
        # offered-load effects (arrival draws still differ by rate).
        workloads = [replace(base_workload, offered_load_rps=rate)
                     for rate in offered_rps]
        results = self.run_points(config, workloads, jobs=jobs)
        return [SweepPoint(workload.num_clients, result)
                for workload, result in zip(workloads, results)]

    # ------------------------------------------------------------------
    @staticmethod
    def peak_throughput(points: List[SweepPoint]) -> float:
        """Highest mean throughput across a sweep (the 'peak' the paper
        quotes when comparing protocols)."""
        return max((p.result.throughput_kops for p in points), default=0.0)

    @staticmethod
    def format_curve(points: List[SweepPoint]) -> str:
        """Plain-text rendering of a latency-vs-throughput curve."""
        lines = [f"{'clients':>8} {'kops/s':>9} {'lat ms':>9}"]
        for p in points:
            lat = (f"{p.result.mean_latency_ms:9.1f}"
                   if p.result.mean_latency_ms is not None else "      n/a")
            lines.append(
                f"{p.num_clients:>8} {p.result.throughput_kops:9.3f} {lat}")
        return "\n".join(lines)


@guard_global_rng
def _run_point_task(task) -> ExperimentResult:
    """One sweep point, shaped for :func:`parallel_map`.

    The guard asserts the point path never draws from the module-level
    ``random`` stream -- forked workers inherit that state, so a global
    draw would break cross-process determinism.
    """
    runner, config, workload = task
    return runner.run_point(config, workload)
