"""Tests for configuration validation and defaults."""

import pytest

from repro.common.config import (
    ClusterConfig,
    ProtocolName,
    ReplicaCount,
    sites_for,
)
from repro.common.errors import ConfigurationError


class TestClusterConfig:
    def test_defaults_match_paper(self):
        config = ClusterConfig()
        assert config.t == 1
        assert config.n == 3
        assert config.batch_size == 20         # Section 5.1.2
        assert config.delta_ms == 1250.0       # Section 5.1.1
        assert config.protocol is ProtocolName.XPAXOS

    def test_n_defaults_per_protocol_class(self):
        assert ClusterConfig(t=2, protocol=ProtocolName.PAXOS).n == 5
        assert ClusterConfig(t=2, protocol=ProtocolName.PBFT).n == 7
        assert ClusterConfig(t=2, protocol=ProtocolName.ZYZZYVA).n == 7
        assert ClusterConfig(t=2, protocol=ProtocolName.ZAB).n == 5

    def test_undersized_n_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(t=2, protocol=ProtocolName.XPAXOS, n=4)

    def test_invalid_t_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(t=0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(delta_ms=0.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(checkpoint_period=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(pipeline_depth=0)

    def test_short_site_list_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(t=1, sites=("CA", "VA"))

    def test_quorum(self):
        assert ClusterConfig(t=1).quorum == 2
        assert ClusterConfig(t=2).quorum == 3
        assert ClusterConfig(t=1, protocol=ProtocolName.PBFT).quorum == 3

    def test_active_count_per_protocol(self):
        assert ClusterConfig(t=2).active_count == 3                   # t+1
        assert ClusterConfig(
            t=2, protocol=ProtocolName.PAXOS).active_count == 3
        assert ClusterConfig(
            t=2, protocol=ProtocolName.PBFT).active_count == 5        # 2t+1
        assert ClusterConfig(
            t=2, protocol=ProtocolName.ZYZZYVA).active_count == 7     # all
        assert ClusterConfig(
            t=2, protocol=ProtocolName.ZAB).active_count == 5         # all

    @pytest.mark.parametrize("t", (1, 2))
    @pytest.mark.parametrize("protocol, expected", [
        (ProtocolName.XPAXOS, lambda t: t + 1),   # the synchronous group
        (ProtocolName.PAXOS, lambda t: 1),        # the leader's reply
        (ProtocolName.PBFT, lambda t: t + 1),     # one correct among them
        (ProtocolName.ZYZZYVA, lambda t: 3 * t + 1),  # fast path: all n
        (ProtocolName.ZAB, lambda t: 1),          # the leader's reply
    ], ids=["xpaxos", "paxos", "pbft", "zyzzyva", "zab"])
    def test_reply_quorum_per_protocol(self, protocol, expected, t):
        assert ClusterConfig(t=t, protocol=protocol).reply_quorum \
            == expected(t)

    def test_reply_quorum_is_derived_not_settable(self):
        config = ClusterConfig(t=1, protocol=ProtocolName.PBFT)
        with pytest.raises(AttributeError):
            config.reply_quorum = 1
        with pytest.raises(TypeError):
            ClusterConfig(t=1, reply_quorum=1)


class TestReplicaCount:
    def test_n_formulas(self):
        assert ReplicaCount.CFT.n(3) == 7
        assert ReplicaCount.BFT.n(3) == 10

    def test_protocol_classification(self):
        assert ProtocolName.XPAXOS.replicas_for is ReplicaCount.CFT
        assert ProtocolName.PAXOS.replicas_for is ReplicaCount.CFT
        assert ProtocolName.ZAB.replicas_for is ReplicaCount.CFT
        assert ProtocolName.PBFT.replicas_for is ReplicaCount.BFT
        assert ProtocolName.ZYZZYVA.replicas_for is ReplicaCount.BFT


class TestSites:
    def test_sites_for_rejects_unknown_t(self):
        with pytest.raises(ConfigurationError):
            sites_for(ProtocolName.XPAXOS, 5)

    def test_t1_placement(self):
        assert sites_for(ProtocolName.XPAXOS, 1) == ("CA", "VA", "JP")

    def test_t2_placement_lengths(self):
        assert len(sites_for(ProtocolName.XPAXOS, 2)) == 5
        assert len(sites_for(ProtocolName.ZYZZYVA, 2)) == 7
