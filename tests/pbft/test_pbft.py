"""Tests for the speculative PBFT baseline."""

import pytest

from repro.common.config import ProtocolName
from repro.faults.checker import SafetyChecker
from tests.conftest import make_cluster, run_workload


@pytest.fixture
def pbft_t1():
    return make_cluster(ProtocolName.PBFT, t=1)


class TestDeployment:
    def test_needs_3t_plus_1_replicas(self, pbft_t1):
        assert pbft_t1.config.n == 4

    def test_common_case_uses_2t_plus_1(self, pbft_t1):
        replica = pbft_t1.replica(0)
        assert replica.active_ids() == [0, 1, 2]
        assert not pbft_t1.replica(3).is_active

    def test_undersized_cluster_rejected(self):
        from repro.common.config import ClusterConfig
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ClusterConfig(t=1, protocol=ProtocolName.PBFT, n=3)


class TestCommonCase:
    def test_requests_commit(self, pbft_t1):
        driver = run_workload(pbft_t1)
        assert driver.throughput.total > 100

    def test_total_order_across_actives(self, pbft_t1):
        run_workload(pbft_t1)
        assert SafetyChecker(pbft_t1).violations() == []

    def test_passive_replica_not_involved(self, pbft_t1):
        run_workload(pbft_t1, duration_ms=1_000.0)
        assert pbft_t1.replica(3).committed_requests == 0

    def test_client_needs_t_plus_1_matching_replies(self, pbft_t1):
        assert pbft_t1.clients[0].reply_quorum == 2

    def test_two_phase_latency_exceeds_paxos(self):
        """PBFT's extra all-to-all phase costs one extra one-way delay
        compared to Paxos's single round trip."""
        pbft = make_cluster(ProtocolName.PBFT, t=1)
        paxos = make_cluster(ProtocolName.PAXOS, t=1)
        lat_pbft = run_workload(pbft).latency.summary().mean
        lat_paxos = run_workload(paxos).latency.summary().mean
        assert lat_pbft > lat_paxos

    def test_t2_deployment(self):
        runtime = make_cluster(ProtocolName.PBFT, t=2)
        assert runtime.config.n == 7
        driver = run_workload(runtime)
        assert driver.throughput.total > 100
        assert SafetyChecker(runtime).violations() == []

    def test_quorum_is_2t_plus_1_votes(self, pbft_t1):
        """A slot commits only after 2t+1 commit votes."""
        run_workload(pbft_t1, duration_ms=500.0)
        # All three actives executed the same prefix.
        lengths = [len(pbft_t1.replica(i).execution_trace)
                   for i in (0, 1, 2)]
        assert min(lengths) > 0
