"""Tests for the top-level package surface (what a downstream user sees)."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_types_importable_from_top_level(self):
        from repro import (
            ClusterConfig,
            LatencyModel,
            Network,
            ProtocolName,
            Simulator,
            WorkloadConfig,
            nines_of,
        )

        assert ClusterConfig(t=1).n == 3
        assert ProtocolName.XPAXOS.value == "xpaxos"
        assert Simulator().now == 0.0
        assert nines_of(0.999) == 3
        assert LatencyModel.ec2().mean_one_way("VA", "CA") == 44.0
        assert WorkloadConfig().request_size == 1024  # the paper's 1/0
        assert Network is not None

    def test_reliability_functions_exported(self):
        assert repro.p_xft_consistent(0.9999, 0.999, 0.999, 1) > \
            repro.p_cft_consistent(0.9999, 3)
        assert repro.p_xft_available(0.999, 1) >= \
            repro.p_bft_available(0.999, 1)
        assert repro.p_bft_consistent(0.9999, 1) > 0.999

    def test_end_to_end_from_public_surface(self):
        """The README quickstart, verbatim."""
        from repro.common.config import ClusterConfig, ProtocolName
        from repro.protocols.registry import build_cluster
        from repro.smr.app import KVStore

        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS)
        runtime = build_cluster(config, num_clients=1,
                                app_factory=KVStore)
        client = runtime.clients[0]

        results = []
        client.on_result = results.append
        client.propose(("put", "k", "v"), size_bytes=64)
        runtime.sim.run(until=1_000.0)
        assert results == [None]
