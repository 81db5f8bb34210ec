"""Tests for the closed-loop workload driver."""

import pytest

from repro.common.config import WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.workloads.clients import ClosedLoopDriver
from tests.conftest import make_cluster


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
        assert driver.mean_latency_ms() > 0
        assert driver.latency.summary().count == driver.throughput.total

    def test_custom_op_factory(self):
        runtime = make_cluster(num_clients=1)
        seen_ops = []
        runtime.replica(0).on_commit_batch = (
            lambda sn, batch: seen_ops.extend(r.op for r in batch))
        workload = WorkloadConfig(num_clients=1, request_size=64,
                                  duration_ms=200.0, warmup_ms=0.0)
        driver = ClosedLoopDriver(
            runtime, workload,
            op_factory=lambda cid, seq: ("custom", cid, seq))
        driver.run()
        assert seen_ops
        assert all(op[0] == "custom" for op in seen_ops)


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
        runtime = SimpleNamespace(sim=sim, clients=clients)
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

    def test_benchmark_presets(self):
        one = WorkloadConfig.one_zero()
        four = WorkloadConfig.four_zero()
        assert one.request_size == 1024
        assert four.request_size == 4096
