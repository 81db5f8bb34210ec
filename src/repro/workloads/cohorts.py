"""Open-loop client-cohort workload driver.

The paper drives its throughput sweeps with closed-loop clients, which
caps offered load at ``num_clients / latency`` -- to push a protocol to
its real ceiling the load must keep arriving regardless of completions
("open loop").  Simulating one process per logical client would make such
sweeps cost millions of idle processes, so this driver models thousands
of logical clients per *cohort*: each cohort is one event-driven arrival
stream drawing Poisson inter-arrival gaps at its share of the aggregate
``offered_load_rps``.

Requests still travel through the real protocol clients attached to the
runtime (one cohort owns a disjoint slice of them, used as a channel
pool), so authentication, retransmission, and reply-quorum behavior are
exactly the per-request machinery the closed loop exercises.  When every
channel of a cohort is busy, further arrivals queue in the cohort's
backlog; latency is measured from the *arrival draw* to the commit, so
queueing delay is part of the reported latency exactly as it would be for
a real overloaded client population.  Past saturation the backlog grows
without bound and measured throughput plateaus at the protocol's
capacity -- which is the number the sweeps are after.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List

from repro.common.config import WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.smr.runtime import ClusterRuntime
from repro.workloads.clients import WorkloadDriver


class _Cohort:
    """One arrival stream over a private pool of protocol clients."""

    def __init__(self, driver: "CohortDriver", index: int,
                 channels: List[Any], rate_per_ms: float,
                 rng: random.Random) -> None:
        self.driver = driver
        self.index = index
        self.rng = rng
        self.rate_per_ms = rate_per_ms
        self.free: Deque[Any] = deque(channels)
        self.backlog: Deque[float] = deque()
        self.backlog_peak = 0
        for channel in channels:
            channel.on_commit = self._make_on_commit(channel)

    # -- arrival stream -------------------------------------------------
    def schedule_next(self) -> None:
        sim = self.driver.runtime.sim
        gap_ms = self.rng.expovariate(self.rate_per_ms)
        at = sim.now + gap_ms
        if at >= self.driver.workload.duration_ms:
            return
        sim.schedule(at, self._arrive)

    def _arrive(self) -> None:
        driver = self.driver
        now = driver.runtime.sim.now
        driver.note_arrival(now)
        if self.free:
            self._issue(self.free.popleft(), arrived_ms=now)
        else:
            self.backlog.append(now)
            if len(self.backlog) > self.backlog_peak:
                self.backlog_peak = len(self.backlog)
        self.schedule_next()

    # -- channel pool ----------------------------------------------------
    def _issue(self, channel, arrived_ms: float) -> None:
        if channel.crashed or channel.busy:
            # A crashed or wedged channel cannot carry the request; its
            # logical client keeps waiting in the backlog.
            self.backlog.appendleft(arrived_ms)
            return
        self.driver.arrived_at[channel.client_id] = arrived_ms
        _, op = self.driver._next_op(channel.client_id)
        channel.propose(op, size_bytes=self.driver.workload.request_size)

    def _make_on_commit(self, channel) -> Callable[[tuple, float], None]:
        def on_commit(rid: tuple, latency_ms: float) -> None:
            driver = self.driver
            now = driver.runtime.sim.now
            arrived = driver.arrived_at.pop(channel.client_id, None)
            if now < driver.workload.duration_ms:
                if arrived is not None:
                    # Open-loop latency runs from the arrival draw, so
                    # time spent queued behind other logical clients
                    # counts.
                    driver.latency.record(now, now - arrived)
                    driver.throughput.record(now)
                else:
                    # A commit with no matching arrival stamp: a
                    # duplicate/late completion for a request whose
                    # stamp was already consumed (e.g. a retransmit
                    # committing twice).  Count it instead of silently
                    # losing the sample, so lossy runs are visible in
                    # the driver report.
                    driver.dropped_samples += 1
            if driver._stopped or now >= driver.workload.duration_ms:
                return
            if self.backlog:
                self._issue(channel, arrived_ms=self.backlog.popleft())
            else:
                self.free.append(channel)

        return on_commit


class CohortDriver(WorkloadDriver):
    """Open-loop driver: Poisson arrivals over client-cohort channels.

    ``workload.offered_load_rps`` is the aggregate arrival rate, split
    evenly over ``workload.cohorts`` independent streams (each seeded from
    ``workload.seed`` and its cohort index, so runs are deterministic and
    cohorts stay decorrelated).  The runtime's protocol clients are
    partitioned round-robin over the cohorts as the channel pool.
    """

    def __init__(self, runtime: ClusterRuntime,
                 workload: WorkloadConfig) -> None:
        super().__init__(runtime, workload)
        if not workload.open_loop:
            raise ConfigurationError(
                "CohortDriver needs workload.offered_load_rps set")
        channels = runtime.clients
        cohorts = min(workload.cohorts, len(channels))
        rate_per_ms = workload.offered_load_rps / cohorts / 1000.0
        self.arrived_at: Dict[int, float] = {}
        self.offered = 0
        self._offered_measured = 0
        #: Commits that arrived without a matching arrival stamp
        #: (duplicate/late completions); their latency samples are
        #: unrecoverable and the ledger reports the count.
        self.dropped_samples = 0
        self.cohorts = [
            _Cohort(self, index, channels[index::cohorts], rate_per_ms,
                    random.Random(f"{workload.seed}-cohort-{index}"))
            for index in range(cohorts)
        ]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every cohort's first arrival draw."""
        for cohort in self.cohorts:
            cohort.schedule_next()

    def note_arrival(self, now_ms: float) -> None:
        self.offered += 1
        if now_ms >= self.workload.warmup_ms:
            self._offered_measured += 1

    # -- reporting -------------------------------------------------------
    def offered_load_kops(self) -> float:
        """Measured arrival rate in kops/s over the measurement window."""
        if self.measured_duration_ms <= 0:
            return 0.0
        return self._offered_measured / self.measured_duration_ms

    @property
    def backlog(self) -> int:
        """Logical clients currently queued for a free channel."""
        return sum(len(c.backlog) for c in self.cohorts)

    @property
    def backlog_peak(self) -> int:
        """Largest backlog any single cohort reached."""
        return max((c.backlog_peak for c in self.cohorts), default=0)

    @property
    def saturated(self) -> bool:
        """True when arrivals outpaced commits (requests still queued)."""
        return self.backlog > 0
