"""Tests for the experiment runner."""

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.harness.runner import ExperimentRunner
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


class TestSweep:
    def test_throughput_increases_with_clients(self):
        runner = lan_runner()
        workload = WorkloadConfig(num_clients=1, request_size=128,
                                  duration_ms=1_000.0, warmup_ms=100.0)
        points = runner.sweep_clients(fast_config(), [1, 8, 32], workload)
        throughputs = [p.result.throughput_kops for p in points]
        assert throughputs[2] > throughputs[0]

    def test_sweep_preserves_all_workload_fields(self):
        # Regression: sweep_clients used to hand-copy fields, silently
        # dropping any WorkloadConfig field added later.  With
        # dataclasses.replace only num_clients and seed may differ.
        import dataclasses

        runner = lan_runner()
        base = WorkloadConfig(num_clients=1, request_size=256, cohorts=3,
                              duration_ms=400.0, warmup_ms=50.0,
                              client_site="CA", seed=9)
        seen = []
        original = runner.run_point

        def spy(config, workload):
            seen.append(workload)
            return original(config, workload)

        runner.run_point = spy
        runner.sweep_clients(fast_config(), [1, 2], base)
        assert [w.num_clients for w in seen] == [1, 2]
        for workload in seen:
            for f in dataclasses.fields(WorkloadConfig):
                if f.name == "num_clients":
                    continue
                expected = (base.seed + workload.num_clients
                            if f.name == "seed" else getattr(base, f.name))
                assert getattr(workload, f.name) == expected, f.name

    def test_peak_and_format(self):
        runner = lan_runner()
        workload = WorkloadConfig(num_clients=1, request_size=128,
                                  duration_ms=500.0, warmup_ms=50.0)
        points = runner.sweep_clients(fast_config(), [1, 4], workload)
        assert ExperimentRunner.peak_throughput(points) == max(
            p.result.throughput_kops for p in points)
        text = ExperimentRunner.format_curve(points)
        assert "clients" in text and len(text.splitlines()) == 3
