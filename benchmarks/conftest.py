"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  Simulation
runs are deterministic and expensive, so each benchmark executes its run
exactly once via ``benchmark.pedantic(..., rounds=1, iterations=1)`` and
prints the regenerated rows/series next to the paper's expectations.

Calibration notes (see docs/workloads.md and docs/profiling.md): virtual
time is milliseconds; the latency model embeds the paper's Table 3;
absolute throughput numbers are not comparable to the paper's testbed, but
the *shapes* (who wins, by what rough factor, where crossovers fall) are
asserted.
"""

from __future__ import annotations

from repro.common.config import ProtocolName, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.harness.configs import paper_config
from repro.harness.runner import Cell, ExperimentRunner, sweep
from repro.net.bandwidth import BandwidthModel

#: Client counts for latency-vs-throughput sweeps.  The paper sweeps to
#: thousands of clients on a testbed; the simulation sweeps fewer points
#: with the same closed-loop semantics.
SWEEP_CLIENTS = (8, 32, 96)

#: Virtual duration of one benchmark run (ms).
RUN_MS = 4_000.0
WARMUP_MS = 500.0

#: Uplink rate (bytes per virtual ms) used by the WAN benches.  Scaled down
#: from the real instances so that leader-uplink saturation (the phenomenon
#: behind Figures 7b and 10) appears within the simulated client counts.
WAN_UPLINK = 4_000.0


def wan_runner(uplink: float = WAN_UPLINK,
               cost_model: CostModel | None = None,
               app_factory=None) -> ExperimentRunner:
    """An EC2-calibrated deployment (Table 3 latencies + bandwidth +
    crypto)."""
    return ExperimentRunner(
        bandwidth_factory=lambda: BandwidthModel(default_rate=uplink),
        cost_model=cost_model or CostModel(),
        app_factory=app_factory,
    )


def one_zero(num_clients: int) -> WorkloadConfig:
    """The paper's 1/0 microbenchmark (1 kB requests, 0 kB replies)."""
    return WorkloadConfig(num_clients=num_clients, request_size=1024,
                          duration_ms=RUN_MS, warmup_ms=WARMUP_MS,
                          client_site="CA")


def four_zero(num_clients: int) -> WorkloadConfig:
    """The paper's 4/0 microbenchmark (4 kB requests)."""
    return WorkloadConfig(num_clients=num_clients, request_size=4096,
                          duration_ms=RUN_MS, warmup_ms=WARMUP_MS,
                          client_site="CA")


def run_sweep(protocol: ProtocolName, workload_factory, t: int = 1,
              seed: int = 0, uplink: float = WAN_UPLINK,
              app_factory=None):
    """Latency-vs-throughput curve for one protocol."""
    deployment = wan_runner(uplink=uplink, app_factory=app_factory)
    config = paper_config(protocol, t=t)
    return sweep([Cell(config, workload_factory(clients),
                       deployment=deployment, seed=seed)
                  for clients in SWEEP_CLIENTS])


def print_curves(title: str, curves: dict) -> None:
    """Print latency-vs-throughput curves side by side."""
    print(f"\n=== {title} ===")
    header = f"{'clients':>8}"
    for name in curves:
        header += f" | {name:>22}"
    print(header)
    print(f"{'':>8}" + " | ".join(
        [""] + [f"{'kops/s':>10} {'lat ms':>11}" for _ in curves]))
    for index, clients in enumerate(SWEEP_CLIENTS):
        row = f"{clients:>8}"
        for name, points in curves.items():
            result = points[index]
            lat = (f"{result.mean_latency_ms:11.1f}"
                   if result.mean_latency_ms is not None else "        n/a")
            row += f" | {result.throughput_kops:10.3f} {lat}"
        print(row)


def peak(points) -> float:
    """Peak mean throughput across a sweep."""
    return max(p.throughput_kops for p in points)


def min_latency(points) -> float:
    """Best (lowest) mean latency across a sweep."""
    return min(p.mean_latency_ms for p in points
               if p.mean_latency_ms is not None)
