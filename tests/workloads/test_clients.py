"""Tests for the closed-loop workload driver."""

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.protocols.registry import build_cluster
from repro.smr.app import NullService
from repro.workloads.clients import ClosedLoopDriver
from tests.conftest import FAST_TIMEOUTS, make_cluster


class TestClosedLoop:
    def test_one_request_in_flight_per_client(self):
        runtime = make_cluster(num_clients=3)
        workload = WorkloadConfig(num_clients=3, request_size=64,
                                  duration_ms=500.0, warmup_ms=0.0)
        driver = ClosedLoopDriver(runtime, workload)
        driver.run()
        # Closed loop: completions per client are sequential, and the
        # client is idle at the end or has exactly one in flight.
        for client in runtime.clients:
            timestamps = [rid[1] for _, _, rid in client.completions]
            assert timestamps == sorted(timestamps)
            assert timestamps == list(range(1, len(timestamps) + 1))

    def test_stops_issuing_at_duration(self):
        runtime = make_cluster(num_clients=2)
        workload = WorkloadConfig(num_clients=2, request_size=64,
                                  duration_ms=300.0, warmup_ms=0.0)
        driver = ClosedLoopDriver(runtime, workload)
        driver.run()
        total = driver.throughput.total
        # Run the sim further: no new requests are issued.
        runtime.sim.run(until=1_000.0)
        assert driver.throughput.total == total

    def test_metrics_populated(self):
        runtime = make_cluster(num_clients=2)
        workload = WorkloadConfig(num_clients=2, request_size=64,
                                  duration_ms=500.0, warmup_ms=50.0)
        driver = ClosedLoopDriver(runtime, workload)
        driver.run()
        assert driver.mean_throughput_kops() > 0
        assert driver.latency.summary().mean > 0
        assert driver.latency.summary().count == driver.throughput.total

    def test_sends_the_apps_benchmark_op(self):
        class CustomService(NullService):
            def benchmark_op(self, client_id, seq):
                return ("custom", client_id, seq)

        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                               **FAST_TIMEOUTS)
        runtime = build_cluster(config, num_clients=1,
                                app_factory=CustomService, seed=42)
        seen_ops = []
        runtime.replica(0).on_commit_batch = (
            lambda sn, batch: seen_ops.extend(r.op for r in batch))
        workload = WorkloadConfig(num_clients=1, request_size=64,
                                  duration_ms=200.0, warmup_ms=0.0)
        ClosedLoopDriver(runtime, workload).run()
        assert seen_ops
        assert {op[:2] for op in seen_ops} == {("custom", 0)}


class TestStartStagger:
    """Initial sends spread over the first millisecond without cohort
    collisions (regression: >100 clients used to collide modulo 100)."""

    class _FakeClient:
        def __init__(self, sim, index):
            self.sim = sim
            self.client_id = index
            self.name = f"c{index}"
            self.crashed = False
            self.busy = False
            self.on_commit = None
            self.issued_at = None

        def propose(self, op, size_bytes=0):
            self.issued_at = self.sim.now

    def _start_times(self, num_clients):
        from types import SimpleNamespace

        from repro.sim.core import Simulator

        sim = Simulator()
        clients = [self._FakeClient(sim, i) for i in range(num_clients)]
        runtime = SimpleNamespace(
            sim=sim, clients=clients,
            replicas=[SimpleNamespace(app=NullService())])
        workload = WorkloadConfig(num_clients=num_clients, request_size=64,
                                  duration_ms=100.0, warmup_ms=0.0)
        driver = ClosedLoopDriver(runtime, workload)
        driver.start()
        sim.run(until=2.0)
        return [c.issued_at for c in clients]

    def test_all_offsets_distinct_beyond_100_clients(self):
        times = self._start_times(150)
        assert None not in times
        assert len(set(times)) == 150
        assert max(times) < 1.0

    def test_small_counts_keep_original_spacing(self):
        times = self._start_times(5)
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])


class TestWorkloadConfigValidation:
    def test_invalid_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(duration_ms=100.0, warmup_ms=100.0)

    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_clients=0)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(request_size=-1)

    @pytest.mark.parametrize("field", [
        "request_size", "duration_ms", "warmup_ms", "offered_load_rps"])
    def test_nan_rejected(self, field):
        # NaN compares false either way: every bound must fail it.
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**{field: float("nan")})
