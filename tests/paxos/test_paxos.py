"""Tests for the WAN-optimized Paxos baseline."""

import pytest

from repro.common.config import ProtocolName
from repro.faults.checker import SafetyChecker
from tests.conftest import make_cluster, run_workload


@pytest.fixture
def paxos_t1():
    return make_cluster(ProtocolName.PAXOS, t=1)


class TestCommonCase:
    def test_requests_commit(self, paxos_t1):
        driver = run_workload(paxos_t1)
        assert driver.throughput.total > 100

    def test_total_order(self, paxos_t1):
        run_workload(paxos_t1)
        assert SafetyChecker(paxos_t1).violations() == []

    def test_only_t_plus_one_replicas_in_common_case(self, paxos_t1):
        """The WAN-optimized variant involves t+1 replicas synchronously;
        the passive one learns lazily (Figure 6c)."""
        run_workload(paxos_t1, duration_ms=1_000.0)
        leader = paxos_t1.replica(0)
        acceptors = leader.common_case_acceptors()
        assert len(acceptors) == paxos_t1.config.t
        assert leader.passive_ids() == [2]

    def test_passive_replica_learns(self, paxos_t1):
        run_workload(paxos_t1)
        learner = paxos_t1.replica(2)
        leader = paxos_t1.replica(0)
        assert learner.committed_requests >= \
            0.9 * leader.committed_requests

    def test_t2_deployment(self):
        runtime = make_cluster(ProtocolName.PAXOS, t=2)
        driver = run_workload(runtime)
        assert driver.throughput.total > 100
        assert SafetyChecker(runtime).violations() == []

    def test_client_commits_on_single_leader_reply(self, paxos_t1):
        assert paxos_t1.clients[0].reply_quorum == 1

    def test_one_round_trip_latency(self, paxos_t1):
        """Fig 6c: client->leader, leader<->acceptor, leader->client =
        2 client hops + 1 RTT ~ 4 one-way delays (1 ms each here)."""
        driver = run_workload(paxos_t1)
        assert driver.mean_latency_ms() < 20.0

