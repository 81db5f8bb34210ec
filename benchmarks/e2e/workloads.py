"""Pinned inputs of the end-to-end ledger, and one repetition of a workload.

Every input (timers, uplink rate, arrival rates, fault schedule, sizes,
durations) is a literal in this file, so the ledger cannot drift when
``benchmarks/conftest.py`` or the scenario library change.  The system is
driven only through its public entry points; nothing under ``src/`` is
edited, wrapped or monkeypatched.

``python -m benchmarks.e2e.workloads NAME SEED SCALE TRACED SPAWNED_AT``
runs one repetition in this (fresh) process and prints one JSON line:
that is what ``run.py`` spawns, so that the process-global digest
counters and the simulator's pools start cold, as a user finds them.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import clock
from repro.common.config import (
    ClusterConfig,
    ProtocolName,
    WorkloadConfig,
    sites_for,
)
from repro.common.rng import derive_seed, stream
from repro.crypto.costs import CostModel
from repro.crypto.primitives import digest_cache_stats
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.faults.liveness import LivenessChecker
from repro.harness.runner import ExperimentRunner
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.workloads.clients import make_driver
from repro.workloads.metrics import LatencyRecorder

# -- pinned inputs ---------------------------------------------------------
#: Virtual duration of each cell, per workload.  Sized so that five
#: repetitions of any workload fit one 20 s driver run on the 2-core box:
#: half the issue's 12 / 6 / 16 s, and a third of its 6 s for the ladder,
#: whose twenty cells are the dearest repetition.  The ladder's reference
#: rung is the cheapest and the only one the simulated statistics are
#: read at, so it keeps the full 6 s: three times the samples.
XPAXOS_LAN_MS = 6_000.0
BCAST_LAN_MS = 3_000.0
WAN_LADDER_MS = 2_000.0
WAN_REFERENCE_MS = 6_000.0
FAULTS_MS = 8_000.0
#: Share of each cell's duration excluded from the simulated statistics.
WARMUP_FRACTION = 0.1
#: After the measured run, in-flight requests get the client's retry
#: timer plus this long to commit; one that still has not is a failed
#: operation.
DRAIN_MS = 2_000.0

#: LAN cells: the conformance matrix's fast timers (``CELL_TIMEOUTS``),
#: copied so a change there cannot move the ledger.
LAN_TIMERS = dict(delta_ms=50.0, request_retransmit_ms=200.0,
                  view_change_timeout_ms=400.0, batch_timeout_ms=2.0)
#: LAN message delay: the same one-way delay between every pair of sites
#: for the whole run, no jitter (so same-tick fan-outs coalesce).  The
#: seed draws it once from 1 ms +/- 1%: the delay is the only input a
#: closed loop on a jitter-free LAN has.
LAN_ONE_WAY_MS = 1.0
LAN_SEED_SPREAD = 0.01
LAN_CLIENTS = 16
LAN_REQUEST_BYTES = 64

#: WAN cells: paper Table 3 delays, scaled-down uplinks so the leader
#: uplink saturates inside the ladder (Fig 7b/10), modelled crypto CPU,
#: and retry timers long enough never to fire in a fault-free run.
WAN_TIMERS = dict(request_retransmit_ms=20_000.0,
                  view_change_timeout_ms=10_000.0)
WAN_UPLINK_BYTES_PER_MS = 4_000.0
WAN_REQUEST_BYTES = 1024
WAN_CHANNELS = 200
WAN_COHORTS = 4
WAN_CLIENT_SITE = "CA"
LADDER_RPS = (400.0, 800.0, 1200.0, 1600.0)
#: Below every protocol's capacity: the rung the simulated statistics
#: are read at.
REFERENCE_RPS = 400.0
#: A rung counts towards ``max_rate_rps`` when it meets both.
MAX_RATE_P99_MS = 600.0
MAX_RATE_BACKLOG_FRACTION = 0.01

#: Fault cells: Fig 9 cadence.  Interval and downtime stay at the issue's
#: values because they only mean something relative to the timers above;
#: the halved duration holds three of the five rolling crashes.
FAULT_CHANNELS = 24
FAULT_COHORTS = 2
FAULT_RPS = 800.0
FAULT_REPLICAS = (0, 1, 2)
FAULT_START_MS = 1_000.0
FAULT_INTERVAL_MS = 2_500.0
FAULT_DOWNTIME_MS = 1_500.0
SAFETY_OBSERVE_MS = 50.0
LIVENESS_BOUND_MS = 2_500.0


@dataclass(frozen=True)
class Cell:
    """One (protocol, deployment, load) run inside a workload."""

    protocol: ProtocolName
    t: int
    duration_ms: float
    wan: bool = False
    rate_rps: Optional[float] = None  # None = closed loop
    faults: bool = False
    #: Whether the workload's simulated statistics include this cell
    #: (false for the ladder's rungs above the reference rate).
    reference: bool = True

    @property
    def label(self) -> str:
        if self.rate_rps is None:
            return self.protocol.value
        return f"{self.protocol.value}@{self.rate_rps:g}"


def _workloads() -> Dict[str, Tuple[Cell, ...]]:
    """``name -> cells``, in the order of BENCHMARK.json, which also
    records why each workload exists (README.md says it at length)."""
    P = ProtocolName
    return {
        # XPaxos in its common case: crypto and protocols.xpaxos dominate.
        "xpaxos-lan-closed": (Cell(P.XPAXOS, 1, XPAXOS_LAN_MS),),
        # Broadcast-heavy, signature-light: sim, net, smr, protocols.base.
        "bcast-t2-lan-closed": tuple(
            Cell(p, 2, BCAST_LAN_MS) for p in (P.PBFT, P.ZYZZYVA, P.ZAB)),
        # Scheduled arrivals, per-link delays, uplink queueing, crypto CPU.
        "wan-open-ladder": tuple(
            Cell(p, 1, (WAN_REFERENCE_MS if rate == REFERENCE_RPS
                        else WAN_LADDER_MS),
                 wan=True, rate_rps=rate, reference=(rate == REFERENCE_RPS))
            for p in P for rate in LADDER_RPS),
        # View change, retransmission, sync, checkers; XFT beside CFT.
        "xpaxos-t2-faults-open": tuple(
            Cell(p, 2, FAULTS_MS, rate_rps=FAULT_RPS, faults=True)
            for p in (P.XPAXOS, P.PAXOS)),
    }


WORKLOADS = _workloads()


class CellLatency(LatencyRecorder):
    """A cell's latency reservoir that also feeds the workload's pool.

    The drivers publish samples only through ``driver.latency``; pooled
    percentiles over several cells need the samples themselves, so the
    benchmark hands each driver this recorder instead of reading the
    stock one's private list.
    """

    def __init__(self, warmup_ms: float,
                 pool: Optional[LatencyRecorder]) -> None:
        super().__init__(warmup_ms)
        self._pool = pool

    def record(self, now_ms: float, latency_ms: float) -> None:
        if self._pool is not None and now_ms >= self.warmup_ms:
            self._pool.record(now_ms, latency_ms)
        super().record(now_ms, latency_ms)


def lan_one_way_ms(seed: int) -> float:
    """The run's LAN one-way delay, drawn once from the seed."""
    spread = stream(seed, "e2e-lan-delay").uniform(-LAN_SEED_SPREAD,
                                                   LAN_SEED_SPREAD)
    return LAN_ONE_WAY_MS * (1.0 + spread)


# -- building one cell -----------------------------------------------------
def build_cell(cell: Cell, seed: int, scale: float):
    """Assemble cluster, driver, checkers and injector for ``cell``.

    ``scale`` multiplies the cell's duration: the ledger runs at 1.0, the
    tier-1 smoke at 1/20.  Timers and the fault schedule keep their
    values (a crash scaled below the view-change timeout is a different
    experiment), so the smoke ends before the first crash.
    """
    duration_ms = cell.duration_ms * scale
    warmup_ms = duration_ms * WARMUP_FRACTION
    sites = sites_for(cell.protocol, cell.t)
    # Every open-loop cell draws its own arrival stream, so a workload's
    # pooled statistics average over independent draws.
    arrivals_seed = derive_seed(seed, "e2e-arrivals", cell.label)
    if cell.wan:
        config = ClusterConfig(t=cell.t, protocol=cell.protocol, sites=sites,
                               **WAN_TIMERS)
        workload = WorkloadConfig(
            num_clients=WAN_CHANNELS, request_size=WAN_REQUEST_BYTES,
            duration_ms=duration_ms, warmup_ms=warmup_ms,
            client_site=WAN_CLIENT_SITE, seed=arrivals_seed,
            offered_load_rps=cell.rate_rps, cohorts=WAN_COHORTS)
        runtime = ExperimentRunner(
            latency_factory=lambda s: LatencyModel.ec2(
                seed=s, deterministic=True),
            bandwidth_factory=lambda: BandwidthModel(
                default_rate=WAN_UPLINK_BYTES_PER_MS),
            cost_model=CostModel()).build(config, workload)
    else:
        config = ClusterConfig(t=cell.t, protocol=cell.protocol, sites=sites,
                               **LAN_TIMERS)
        channels = FAULT_CHANNELS if cell.faults else LAN_CLIENTS
        workload = WorkloadConfig(
            num_clients=channels, request_size=LAN_REQUEST_BYTES,
            duration_ms=duration_ms, warmup_ms=warmup_ms, seed=arrivals_seed,
            offered_load_rps=cell.rate_rps, cohorts=FAULT_COHORTS)
        runtime = build_cluster(
            config, num_clients=channels,
            latency=LatencyModel.uniform(sorted(set(sites)),
                                         one_way_ms=lan_one_way_ms(seed),
                                         seed=seed),
            client_site=sites[0], seed=seed)
    driver = make_driver(runtime, workload)
    checker = SafetyChecker(runtime)
    liveness = injector = None
    if cell.faults:
        injector = FaultInjector(runtime)
        injector.arm(FaultSchedule.rolling_crashes(
            replicas=FAULT_REPLICAS, start_ms=FAULT_START_MS,
            interval_ms=FAULT_INTERVAL_MS, downtime_ms=FAULT_DOWNTIME_MS))
        checker.observe_periodically(SAFETY_OBSERVE_MS, duration_ms)
        liveness = LivenessChecker(runtime, bound_ms=LIVENESS_BOUND_MS)
        liveness.watch(duration_ms)
    return runtime, driver, workload, checker, liveness, injector


# -- reading one cell back -------------------------------------------------
def _attempted(runtime, driver, workload: WorkloadConfig) -> int:
    if workload.open_loop:
        return driver.offered
    return sum(c.timestamp for c in runtime.clients)


def _commit_times(runtime, upto_ms: float) -> List[float]:
    return sorted(done for c in runtime.clients
                  for _, done, _ in c.completions if done <= upto_ms)


def _longest_gap(times: List[float], lo: float, hi: float) -> float:
    """Longest interval inside [lo, hi] holding no instant of ``times``."""
    edges = [lo] + [t for t in times if t >= lo] + [hi]
    return max(b - a for a, b in zip(edges, edges[1:]))


def read_cell(cell: Cell, runtime, driver, workload: WorkloadConfig,
              checker, liveness, injector,
              digests_before: Dict[str, int]) -> Dict[str, Any]:
    """The cell's simulated statistics and public counters, taken when
    ``driver.run()`` returns (before the drain)."""
    duration_ms = workload.duration_ms
    sim = runtime.sim.stats()
    net = runtime.network.stats
    digests = digest_cache_stats()
    hits = digests["hits"] - digests_before["hits"]
    digest_calls = sum(digests.values()) - sum(digests_before.values())
    commit_times = _commit_times(runtime, duration_ms)
    summary = driver.latency.summary()
    nodes = list(runtime.replicas) + list(runtime.clients)
    return {
        "label": cell.label,
        "protocol": cell.protocol.value,
        "rate_rps": cell.rate_rps,
        "reference": cell.reference,
        "sim": {
            "measured_commits": driver.throughput.total,
            "measured_ms": duration_ms - workload.warmup_ms,
            "p50_ms": summary.p50 if summary else 0.0,
            "p99_ms": summary.p99 if summary else 0.0,
            "samples": summary.count if summary else 0,
            "unavail_ms": _longest_gap(commit_times, workload.warmup_ms,
                                       duration_ms),
            "backlog_end": getattr(driver, "backlog", 0),
            "modeled_cpu_pct": max(
                r.cpu.utilisation_percent(duration_ms)
                for r in runtime.replicas),
        },
        "counts": {
            "commits": len(commit_times),
            "arrivals": _attempted(runtime, driver, workload),
            "backlog_peak": getattr(driver, "backlog_peak", 0),
            "dropped_samples": getattr(driver, "dropped_samples", 0),
            "sim.events": sim["executed"],
            "sim.scheduled": sim["scheduled"],
            "sim.heap_pushes": sim["heap_pushes"],
            "sim.cancelled": sim["cancelled"],
            "sim.fast_lane": sim["fast_lane"],
            "sim.pool_hits": sim["pool_hits"],
            "sim.arena_hits": sim["arena_hits"],
            "sim.peak_pending": sim["peak_pending"],
            "net.msgs_sent": net.messages_sent,
            "net.bytes_sent": net.bytes_sent,
            "net.dropped": (net.messages_dropped_partition
                            + net.messages_dropped_crash),
            "net.coalesced_ticks": net.coalesced_ticks,
            "net.coalesced_deliveries": net.coalesced_deliveries,
            "crypto.digest_calls": digest_calls,
            "crypto.digest_cache_hits": hits,
            "crypto.mac_stamped": net.auth_stamped,
            "crypto.mac_verified": net.auth_verified,
            "protocols.batches": max(r.sn for r in runtime.replicas),
            "protocols.sequencer_stalls": sum(
                r.sequencer.stalls for r in runtime.replicas),
            "protocols.view_changes": max(
                r.view_changes_completed for r in runtime.replicas),
            "protocols.elections_started": sum(
                getattr(r, "elections_started", 0)
                for r in runtime.replicas),
            "protocols.client_timeouts": sum(
                c.timeouts for c in runtime.clients),
            "smr.executes": sum(
                r.committed_requests for r in runtime.replicas),
            "smr.msgs_received": sum(n.messages_received for n in nodes),
            "smr.auth_failures": sum(n.auth_failures for n in nodes),
            "faults.injected": len(injector.injected) if injector else 0,
            "faults.safety_violations": len(checker.violations()),
            "faults.liveness_violations": (
                len(liveness.violations) if liveness else 0),
        },
    }


def grade_cell(cell: Cell, record: Dict[str, Any], runtime,
               checker) -> List[str]:
    """Correctness misses of one cell, each as one attributed line."""
    counts = record["counts"]
    where = f"{record['label']}:"
    problems = []
    if counts["faults.safety_violations"] and not checker.anarchy_observed:
        problems.append(f"{where} {counts['faults.safety_violations']} "
                        f"safety violations outside anarchy")
    if counts["faults.liveness_violations"]:
        problems.append(f"{where} {counts['faults.liveness_violations']} "
                        f"liveness violations")
    if counts["smr.auth_failures"]:
        problems.append(f"{where} {counts['smr.auth_failures']} "
                        f"authenticator failures")
    if cell.reference and counts["commits"] == 0:
        problems.append(f"{where} nothing committed")
    if not cell.faults:
        # Replicas that executed the same prefix must hold the same
        # state.  (A recovered replica restarts its application from a
        # checkpoint, which legitimately reseeds the digest chain, so
        # fault cells rely on the total-order check instead.)
        by_executed: Dict[int, set] = {}
        for replica in runtime.replicas:
            by_executed.setdefault(replica.committed_requests, set()).add(
                replica.app.state_digest())
        for executed, states in sorted(by_executed.items()):
            if len(states) > 1:
                problems.append(f"{where} replicas that executed {executed} "
                                f"requests hold {len(states)} different "
                                f"state digests")
    return problems


# -- one repetition --------------------------------------------------------
def run_cell(cell: Cell, seed: int, scale: float, profiler,
             pool: LatencyRecorder) -> Dict[str, Any]:
    """Build, drive, read back, grade and drain one cell.

    A function of its own so the cluster is garbage before the next cell
    is built: peak memory is one cell's, as in a ``repro scenarios`` run.
    """
    t0 = clock.wall()
    digests_before = digest_cache_stats()
    runtime, driver, workload, checker, liveness, injector = build_cell(
        cell, seed, scale)
    driver.latency = CellLatency(workload.warmup_ms,
                                 pool if cell.reference else None)
    t1 = clock.wall()
    c1 = clock.cpu()
    if profiler is not None:
        profiler.enable()
    driver.run()
    if profiler is not None:
        profiler.disable()
    c2 = clock.cpu()
    t2 = clock.wall()
    record = read_cell(cell, runtime, driver, workload, checker, liveness,
                       injector, digests_before)
    record["problems"] = grade_cell(cell, record, runtime, checker)
    record["attempted"] = record["failed"] = 0
    if cell.reference:
        runtime.sim.run(until=workload.duration_ms + DRAIN_MS
                        + runtime.config.request_retransmit_ms)
        done = sum(len(c.completions) for c in runtime.clients)
        record["attempted"] = record["counts"]["arrivals"]
        record["failed"] = record["attempted"] - done
        if record["failed"]:
            record["problems"].append(
                f"{cell.label}: {record['failed']} of {record['attempted']} "
                f"requests never committed")
    record["host"] = {"build_s": t1 - t0, "wall_s": t2 - t1,
                      "cpu_s": c2 - c1, "grade_s": clock.wall() - t2}
    return record


def run_workload(name: str, seed: int, scale: float, profiler,
                 spawned_at: float, imported_at: float) -> Dict[str, Any]:
    """Run every cell of workload ``name`` once, in this process.

    ``profiler`` is None or a ``cProfile.Profile``, enabled around each
    ``driver.run()`` only.  ``spawned_at`` / ``imported_at`` are
    ``clock.wall()`` readings taken by the parent just before the spawn
    and by this process after its imports.
    """
    started = clock.wall()
    pool = LatencyRecorder()  # samples arrive already past their warm-up
    cells = [run_cell(cell, seed, scale, profiler, pool)
             for cell in WORKLOADS[name]]
    host = {key: sum(c["host"][key] for c in cells)
            for key in ("wall_s", "cpu_s", "build_s", "grade_s")}
    host["import_s"] = imported_at - spawned_at
    # Set-up is everything before the first drive plus the building and
    # arming of later cells.
    host["setup_s"] = started - spawned_at + host["build_s"]
    host["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = [c for c in cells if c["reference"]]
    pooled = pool.summary()
    return {
        "workload": name, "seed": seed, "scale": scale,
        "traced": profiler is not None,
        "host": host,
        "sim": {
            "sim_kops": (sum(c["sim"]["measured_commits"] for c in reference)
                         / sum(c["sim"]["measured_ms"] for c in reference)),
            "sim_p50_ms": pooled.p50 if pooled else 0.0,
            "sim_p99_ms": pooled.p99 if pooled else 0.0,
            "sim_unavail_ms": max(c["sim"]["unavail_ms"] for c in reference),
            "sim_samples": pooled.count if pooled else 0,
        },
        "attempted": sum(c["attempted"] for c in cells),
        "failed": sum(c["failed"] for c in cells),
        "problems": [p for c in cells for p in c["problems"]],
        "cells": cells,
    }


def main(argv: List[str]) -> int:
    imported_at = clock.wall()
    name, seed, scale, traced, spawned_at = argv
    profiler = None
    if traced == "1":
        # Imported here so untraced repetitions do not pay for it in
        # their set-up time.
        import cProfile
        from benchmarks.e2e import trace
        profiler = cProfile.Profile()
    result = run_workload(name, int(seed), float(scale), profiler,
                          float(spawned_at), imported_at)
    if profiler is not None:
        result["layers"] = trace.layer_report(profiler)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
