"""Tests for the Zyzzyva baseline."""

import pytest

from repro.common.config import ProtocolName
from repro.faults.checker import SafetyChecker
from tests.conftest import make_cluster, run_workload


@pytest.fixture
def zyzzyva_t1():
    return make_cluster(ProtocolName.ZYZZYVA, t=1)


class TestDeployment:
    def test_needs_3t_plus_1_replicas(self, zyzzyva_t1):
        assert zyzzyva_t1.config.n == 4

    def test_all_replicas_active(self, zyzzyva_t1):
        run_workload(zyzzyva_t1, duration_ms=1_000.0)
        for replica in zyzzyva_t1.replicas:
            assert replica.committed_requests > 0


class TestSpeculativeFastPath:
    def test_requests_commit(self, zyzzyva_t1):
        driver = run_workload(zyzzyva_t1)
        assert driver.throughput.total > 100

    def test_client_needs_all_3t_plus_1_replies(self, zyzzyva_t1):
        assert zyzzyva_t1.clients[0].reply_quorum == 4

    def test_total_order(self, zyzzyva_t1):
        run_workload(zyzzyva_t1)
        assert SafetyChecker(zyzzyva_t1).violations() == []

    def test_speculation_is_one_way_cheaper_than_pbft(self):
        zyzzyva = make_cluster(ProtocolName.ZYZZYVA, t=1)
        pbft = make_cluster(ProtocolName.PBFT, t=1)
        lat_z = run_workload(zyzzyva).latency.summary().mean
        lat_p = run_workload(pbft).latency.summary().mean
        assert lat_z < lat_p

    def test_t2_deployment(self):
        runtime = make_cluster(ProtocolName.ZYZZYVA, t=2)
        assert runtime.config.n == 7
        driver = run_workload(runtime)
        assert driver.throughput.total > 100

    def test_history_digest_advances(self, zyzzyva_t1):
        run_workload(zyzzyva_t1, duration_ms=500.0)
        from repro.crypto.primitives import Digest

        primary = zyzzyva_t1.replica(0)
        assert primary._history != Digest(b"\x00" * 32)
