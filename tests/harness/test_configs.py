"""Tests for the Table 4 placement helpers."""

import pytest

from repro.common.config import ProtocolName
from repro.common.errors import ConfigurationError
from repro.harness.configs import (
    common_case_sites,
    paper_config,
    replica_placement_table,
)


class TestTable4:
    def test_t1_placement_matches_paper(self):
        table = replica_placement_table(t=1)
        # Table 4: every protocol's primary is in CA; XPaxos has its
        # follower in VA and passive in JP; PBFT/Zyzzyva add EU.
        assert table["xpaxos"] == ("CA", "VA", "JP")
        assert table["paxos"] == ("CA", "VA", "JP")
        assert table["zab"] == ("CA", "VA", "JP")
        assert table["pbft"] == ("CA", "VA", "JP", "EU")
        assert table["zyzzyva"] == ("CA", "VA", "JP", "EU")

    def test_t2_placement_has_seven_sites_for_bft(self):
        table = replica_placement_table(t=2)
        assert len(table["pbft"]) == 7
        assert len(table["xpaxos"]) == 5

    def test_unsupported_t_rejected(self):
        with pytest.raises(ConfigurationError):
            replica_placement_table(t=3)


class TestCommonCaseSites:
    # XPaxos and Paxos: t + 1; speculative PBFT: 2t + 1; Zyzzyva and
    # Zab: every replica -- a prefix of the protocol's placement.
    @pytest.mark.parametrize("protocol, t, expected", [
        (ProtocolName.XPAXOS, 1, ("CA", "VA")),
        (ProtocolName.PAXOS, 1, ("CA", "VA")),
        (ProtocolName.PBFT, 1, ("CA", "VA", "JP")),
        (ProtocolName.ZYZZYVA, 1, ("CA", "VA", "JP", "EU")),
        (ProtocolName.ZAB, 1, ("CA", "VA", "JP")),
        (ProtocolName.XPAXOS, 2, ("CA", "OR", "VA")),
        (ProtocolName.PAXOS, 2, ("CA", "OR", "VA")),
        (ProtocolName.PBFT, 2, ("CA", "OR", "VA", "JP", "EU")),
        (ProtocolName.ZYZZYVA, 2, ("CA", "OR", "VA", "JP", "EU", "AU",
                                   "SG")),
        (ProtocolName.ZAB, 2, ("CA", "OR", "VA", "JP", "EU")),
    ])
    def test_common_case_is_a_prefix_of_the_placement(self, protocol, t,
                                                      expected):
        assert common_case_sites(protocol, t) == expected


class TestPaperConfig:
    def test_defaults(self):
        config = paper_config(ProtocolName.XPAXOS)
        assert config.n == 3
        assert config.batch_size == 20
        assert config.delta_ms == 1250.0
        assert config.sites == ("CA", "VA", "JP")
