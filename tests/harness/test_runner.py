"""Tests for the experiment runner."""

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.faults.injector import FaultSchedule
from repro.harness.runner import ExperimentRunner, _zero_gaps
from repro.net.latency import LatencyModel


def lan_runner(**kwargs):
    return ExperimentRunner(
        latency_factory=lambda seed: LatencyModel.uniform(
            ["CA", "VA", "JP", "EU", "OR", "AU", "SG"], one_way_ms=1.0,
            seed=seed),
        cost_model=CostModel.free(),
        **kwargs,
    )


def fast_config(protocol=ProtocolName.XPAXOS, **overrides):
    return ClusterConfig(t=1, protocol=protocol, delta_ms=50.0,
                         request_retransmit_ms=500.0,
                         view_change_timeout_ms=1_000.0,
                         batch_timeout_ms=2.0, **overrides)


class TestRunPoint:
    def test_result_fields_populated(self):
        runner = lan_runner()
        workload = WorkloadConfig(num_clients=4, request_size=128,
                                  duration_ms=1_000.0, warmup_ms=100.0)
        result = runner.run_point(fast_config(), workload)
        assert result.protocol == "xpaxos"
        assert result.num_clients == 4
        assert result.throughput_kops > 0
        assert result.mean_latency_ms > 0
        assert result.committed > 0
        assert result.timeouts == 0
        assert len(result.cpu_by_replica) == 3

    def test_cpu_accounting_nonzero_with_cost_model(self):
        runner = ExperimentRunner(
            latency_factory=lambda seed: LatencyModel.uniform(
                ["CA", "VA", "JP"], one_way_ms=1.0, seed=seed),
            cost_model=CostModel())
        workload = WorkloadConfig(num_clients=4, request_size=128,
                                  duration_ms=1_000.0, warmup_ms=100.0)
        result = runner.run_point(fast_config(), workload)
        assert result.cpu_percent_most_loaded > 0

    def test_deterministic_across_identical_runs(self):
        workload = WorkloadConfig(num_clients=3, request_size=128,
                                  duration_ms=800.0, warmup_ms=100.0)
        a = lan_runner(seed=5).run_point(fast_config(), workload)
        b = lan_runner(seed=5).run_point(fast_config(), workload)
        assert a.throughput_kops == b.throughput_kops
        assert a.mean_latency_ms == b.mean_latency_ms


class TestRunPoints:
    def test_throughput_increases_with_clients(self):
        runner = lan_runner()
        workloads = [WorkloadConfig(num_clients=count, request_size=128,
                                    duration_ms=1_000.0, warmup_ms=100.0)
                     for count in (1, 8, 32)]
        results = runner.run_points(fast_config(), workloads)
        assert [r.num_clients for r in results] == [1, 8, 32]
        assert results[2].throughput_kops > results[0].throughput_kops


def fault_runner():
    return ExperimentRunner(
        latency_factory=lambda seed: LatencyModel.uniform(
            ["CA", "VA", "JP"], one_way_ms=1.0, seed=seed),
        cost_model=CostModel.free())


def fault_config(protocol=ProtocolName.XPAXOS):
    return ClusterConfig(t=1, protocol=protocol, delta_ms=50.0,
                         request_retransmit_ms=300.0,
                         view_change_timeout_ms=600.0, batch_timeout_ms=2.0)


class TestRunPointUnderFaults:
    def test_crash_produces_gap_then_recovery(self):
        workload = WorkloadConfig(num_clients=4, request_size=128,
                                  duration_ms=8_000.0, warmup_ms=100.0)
        schedule = FaultSchedule().crash_for(2_000.0, 1, 1_000.0)
        result = fault_runner().run_point(fault_config(), workload,
                                          schedule=schedule)
        assert result.committed > 500
        # Views rotated at least once per affected replica.
        assert max(result.final_views.values()) >= 1
        # Throughput resumed: windows exist near the end of the run.
        last_window = max(start for start, _ in result.throughput_series)
        assert last_window >= 7_000.0

    @pytest.mark.parametrize("protocol", list(ProtocolName),
                             ids=[p.value for p in ProtocolName])
    def test_suspect_event_changes_the_view(self, protocol):
        """A scripted suspicion reaches every protocol's replica, and the
        result reports each replica's view changes and final view."""
        workload = WorkloadConfig(num_clients=4, request_size=128,
                                  duration_ms=3_000.0, warmup_ms=100.0)
        schedule = FaultSchedule().suspect(500.0, 1)
        result = lan_runner().run_point(fault_config(protocol), workload,
                                        schedule=schedule)
        assert result.committed > 0
        assert min(result.final_views.values()) >= 1
        assert sum(result.view_changes.values()) >= 1

    def test_fault_free_run_has_no_gaps(self):
        workload = WorkloadConfig(num_clients=4, request_size=128,
                                  duration_ms=3_000.0, warmup_ms=100.0)
        result = fault_runner().run_point(fault_config(), workload,
                                          schedule=FaultSchedule())
        assert result.longest_gap_ms() == 0.0
        assert all(v == 0 for v in result.final_views.values())

    def test_outage_that_never_ends_is_reported(self):
        # Two of three replicas down for good: t = 1 cannot commit again,
        # so the run ends inside an outage that began at the crash.
        workload = WorkloadConfig(num_clients=4, request_size=128,
                                  duration_ms=5_000.0, warmup_ms=100.0)
        schedule = FaultSchedule().crash(1_500.0, 1).crash(1_500.0, 2)
        result = fault_runner().run_point(fault_config(), workload,
                                          schedule=schedule)
        assert result.committed > 0
        assert result.recovery_gaps_ms == [3_000.0]


def _workload(duration_ms, warmup_ms=0.0):
    return WorkloadConfig(num_clients=1, duration_ms=duration_ms,
                          warmup_ms=warmup_ms)


class TestZeroGaps:
    def test_interior_gap_measured(self):
        series = [(0.0, 1.0), (200.0, 1.0), (800.0, 1.0)]
        # Windows 400 and 600 are empty.
        assert _zero_gaps(series, 200.0, _workload(1_000.0)) == [400.0]

    def test_no_gaps(self):
        series = [(0.0, 1.0), (200.0, 1.0)]
        assert _zero_gaps(series, 200.0, _workload(400.0)) == []

    def test_empty_series_is_one_outage(self):
        assert _zero_gaps([], 200.0, _workload(400.0)) == [400.0]

    def test_bounded_by_the_measured_period(self):
        # Windows 0-1 are warmup; the tail from 800 to 1200 is an outage
        # that never ended.
        series = [(400.0, 1.0), (600.0, 1.0)]
        assert _zero_gaps(series, 200.0,
                          _workload(1_200.0, warmup_ms=400.0)) == [400.0]
