"""End-to-end determinism: identical seeds yield identical experiments.

Reproducibility is the substrate's core promise (docs/static-analysis.md,
rules D001-D003): any run is a pure function of (code, seed).  These tests
pin that down at the system level -- full protocol runs, fault schedules
and all.
"""

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.workloads.clients import ClosedLoopDriver


def run_once(seed, with_faults=False):
    config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                           delta_ms=50.0, request_retransmit_ms=200.0,
                           view_change_timeout_ms=400.0,
                           batch_timeout_ms=2.0)
    runtime = build_cluster(
        config, num_clients=3,
        latency=LatencyModel.ec2(seed=seed),
        bandwidth=BandwidthModel(), seed=seed)
    driver = ClosedLoopDriver(
        runtime, WorkloadConfig(num_clients=3, request_size=128,
                                duration_ms=3_000.0, warmup_ms=100.0))
    if with_faults:
        FaultInjector(runtime).arm(
            FaultSchedule().crash_for(1_000.0, 1, 500.0))
    driver.run()
    trace = tuple(tuple(r.execution_trace) for r in runtime.replicas)
    return (driver.throughput.total, driver.mean_latency_ms(), trace,
            runtime.sim.executed)


class TestSystemDeterminism:
    def test_identical_seeds_identical_runs(self):
        assert run_once(42) == run_once(42)

    def test_identical_seeds_identical_fault_runs(self):
        assert run_once(7, with_faults=True) == \
            run_once(7, with_faults=True)

    def test_different_seeds_differ(self):
        # Same workload, different latency draws: latencies must differ.
        _, lat_a, _, events_a = run_once(1)
        _, lat_b, _, events_b = run_once(2)
        assert lat_a != lat_b or events_a != events_b

    @pytest.mark.parametrize("protocol", list(ProtocolName))
    def test_every_protocol_is_deterministic(self, protocol):
        def one(seed=13):
            config = ClusterConfig(t=1, protocol=protocol, delta_ms=50.0,
                                   request_retransmit_ms=500.0,
                                   view_change_timeout_ms=1_000.0,
                                   batch_timeout_ms=2.0)
            runtime = build_cluster(config, num_clients=2,
                                    latency=LatencyModel.ec2(seed=seed),
                                    seed=seed)
            driver = ClosedLoopDriver(
                runtime, WorkloadConfig(num_clients=2, request_size=64,
                                        duration_ms=1_500.0,
                                        warmup_ms=100.0))
            driver.run()
            return (driver.throughput.total,
                    tuple(tuple(r.execution_trace)
                          for r in runtime.replicas))

        assert one() == one()
