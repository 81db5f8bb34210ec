"""Tests for latency and throughput recorders."""

import pytest

from repro.workloads.metrics import (
    Completions,
    LatencyRecorder,
    ThroughputRecorder,
)
from tests.conftest import make_cluster, run_workload


class TestCompletions:
    def test_reads_back_exactly_like_the_list_it_replaced(self):
        completions = Completions(client_id=3)
        assert len(completions) == 0 and not completions
        assert list(completions) == []
        as_list = []
        for timestamp, (sent, done) in enumerate(
                [(0.0, 2.5), (2.5, 4.0625), (4.0625, 1e9 + 0.1)], start=1):
            completions.record(sent, done, timestamp)
            as_list.append((sent, done, (3, timestamp)))
        assert len(completions) == len(as_list) and completions
        assert list(completions) == as_list
        for index in range(-len(as_list), len(as_list)):
            assert completions[index] == as_list[index]
            assert type(completions[index][2]) is tuple
        assert [done for _, done, _ in completions] == [2.5, 4.0625,
                                                        1e9 + 0.1]
        with pytest.raises(IndexError):
            completions[len(as_list)]
        with pytest.raises(IndexError):
            completions[-len(as_list) - 1]

    def test_a_client_records_its_commits_columnar(self):
        runtime = make_cluster(num_clients=2)
        run_workload(runtime, duration_ms=300.0)
        for client in runtime.clients:
            assert isinstance(client.completions, Completions)
            rids = [rid for _, _, rid in client.completions]
            assert rids == [(client.client_id, ts) for ts in
                                  range(1, len(client.completions) + 1)]
            assert all(sent <= done for sent, done, _ in client.completions)


class TestLatencyRecorder:
    def test_warmup_filtered(self):
        recorder = LatencyRecorder(warmup_ms=100.0)
        recorder.record(50.0, 5.0)   # during warmup: dropped
        recorder.record(150.0, 7.0)
        assert recorder.count == 1
        assert recorder.summary().mean == 7.0

    def test_empty_summary_is_none(self):
        assert LatencyRecorder().summary() is None

    def test_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(0.0, float(value))
        summary = recorder.summary()
        assert summary.p50 == 50.0
        assert summary.p99 == 99.0
        assert summary.maximum == 100.0
        assert summary.mean == pytest.approx(50.5)

    def test_single_sample(self):
        recorder = LatencyRecorder()
        recorder.record(0.0, 42.0)
        summary = recorder.summary()
        assert summary.p50 == summary.p99 == summary.maximum == 42.0


class TestThroughputRecorder:
    def test_windows(self):
        recorder = ThroughputRecorder(window_ms=1_000.0)
        recorder.record(100.0)
        recorder.record(900.0)
        recorder.record(1_500.0)
        timeline = recorder.timeline()
        assert timeline == [(0.0, 0.002), (1_000.0, 0.001)]

    def test_total_and_mean(self):
        recorder = ThroughputRecorder()
        for t in (100.0, 200.0, 300.0):
            recorder.record(t)
        assert recorder.total == 3
        assert recorder.mean_kops(1_000.0) == pytest.approx(0.003)

    def test_warmup_filtered(self):
        recorder = ThroughputRecorder(warmup_ms=500.0)
        recorder.record(100.0)
        recorder.record(600.0)
        assert recorder.total == 1

    def test_bulk_counts(self):
        recorder = ThroughputRecorder()
        recorder.record(10.0, count=20)
        assert recorder.total == 20

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ThroughputRecorder(window_ms=0.0)

    def test_zero_duration_mean(self):
        assert ThroughputRecorder().mean_kops(0.0) == 0.0
