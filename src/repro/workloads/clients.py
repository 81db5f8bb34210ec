"""Workload drivers: the shared driver interface and the closed loop.

"Clients issue requests in closed-loop: a client waits for a reply to its
current request before issuing a new request" (Section 5.1.3).  The
closed-loop driver below implements exactly that; the open-loop
:class:`~repro.workloads.cohorts.CohortDriver` models arrival-rate-driven
load instead.  Both share the :class:`WorkloadDriver` interface so the
harness (`ClusterRuntime` users, the scenario matrix, the Fig 7/9/10
benchmarks) can accept either; :func:`make_driver` picks the one the
workload config asks for.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.common.config import WorkloadConfig
from repro.smr.runtime import ClusterRuntime
from repro.workloads.metrics import LatencyRecorder, ThroughputRecorder


class WorkloadDriver:
    """Common state and reporting shared by every workload driver.

    Args:
        runtime: the cluster to drive.
        workload: sizes, duration, warmup, and (for the open loop) rates.
        op_factory: builds the next operation for a client
            (default: a monotone counter op for the null service).
    """

    def __init__(self, runtime: ClusterRuntime, workload: WorkloadConfig,
                 op_factory: Optional[Callable[[int, int], Any]] = None
                 ) -> None:
        self.runtime = runtime
        self.workload = workload
        self.op_factory = op_factory or (lambda client_id, seq: seq)
        self.latency = LatencyRecorder(warmup_ms=workload.warmup_ms)
        self.throughput = ThroughputRecorder(warmup_ms=workload.warmup_ms)
        self._issued: dict = {}
        self._stopped = False

    def start(self) -> None:
        """Arm the driver's first events. Subclasses implement."""
        raise NotImplementedError

    def run(self) -> None:
        """Start the driver and run the simulation to the configured end."""
        self.start()
        self.runtime.sim.run(until=self.workload.duration_ms)
        self._stopped = True

    def _next_op(self, client_id: int):
        """Next (seq, op) pair for ``client_id``'s request stream."""
        seq = self._issued.get(client_id, 0) + 1
        self._issued[client_id] = seq
        return seq, self.op_factory(client_id, seq)

    @property
    def measured_duration_ms(self) -> float:
        """Length of the measurement period (after warmup)."""
        return self.workload.duration_ms - self.workload.warmup_ms

    def mean_throughput_kops(self) -> float:
        """Mean committed throughput in kops/s over the measured period."""
        return self.throughput.mean_kops(self.measured_duration_ms)

    def mean_latency_ms(self) -> Optional[float]:
        """Mean commit latency, or None if nothing committed."""
        summary = self.latency.summary()
        return summary.mean if summary else None


class ClosedLoopDriver(WorkloadDriver):
    """Drives every attached client in a closed loop (the paper's model)."""

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every client's first request at t=0 (staggered by a hair to
        avoid a thundering-herd artifact at the very first instant)."""
        base = self.runtime.sim.now
        clients = self.runtime.clients
        # Spread initial sends over the first millisecond by actual index:
        # with more than 100 clients the spacing shrinks so every client
        # still gets a distinct instant (a modulo would re-collide whole
        # cohorts at identical offsets, re-creating the herd).
        spacing = 0.01 if len(clients) <= 100 else 1.0 / len(clients)
        for index, client in enumerate(clients):
            client.on_commit = self._make_on_commit(client)
            self.runtime.sim.call_at(
                base + index * spacing, self._issue, args=(client,))

    def _make_on_commit(self, client) -> Callable[[tuple, float], None]:
        def on_commit(rid: tuple, latency_ms: float) -> None:
            now = self.runtime.sim.now
            # The measurement window is [warmup, duration): completions of
            # requests still in flight at the cutoff are not counted.
            if now < self.workload.duration_ms:
                self.latency.record(now, latency_ms)
                self.throughput.record(now)
            self._issue(client)

        return on_commit

    def _issue(self, client) -> None:
        if self._stopped or client.crashed:
            return
        if self.runtime.sim.now >= self.workload.duration_ms:
            return
        if client.busy:
            return
        _, op = self._next_op(client.client_id)
        client.propose(op, size_bytes=self.workload.request_size)


def make_driver(runtime: ClusterRuntime, workload: WorkloadConfig,
                op_factory: Optional[Callable[[int, int], Any]] = None
                ) -> WorkloadDriver:
    """Build the driver the workload config selects: the open-loop cohort
    driver when ``offered_load_rps`` is set, closed loop otherwise."""
    if workload.open_loop:
        from repro.workloads.cohorts import CohortDriver
        return CohortDriver(runtime, workload, op_factory)
    return ClosedLoopDriver(runtime, workload, op_factory)
