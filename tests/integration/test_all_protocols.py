"""Cross-protocol integration tests: every protocol, same workload, same
invariants."""

import pytest

from repro.common.config import ClusterConfig, ProtocolName
from repro.faults.checker import SafetyChecker
from repro.protocols.registry import build_cluster
from repro.smr.app import KVStore
from tests.conftest import FAST_TIMEOUTS, make_cluster, run_workload

ALL_PROTOCOLS = list(ProtocolName)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestUniformInvariants:
    def test_commits_and_total_order(self, protocol):
        runtime = make_cluster(protocol, num_clients=4)
        driver = run_workload(runtime, duration_ms=2_000.0)
        assert driver.throughput.total > 50
        assert SafetyChecker(runtime).violations() == []

    def test_client_timestamps_monotone(self, protocol):
        runtime = make_cluster(protocol, num_clients=3)
        run_workload(runtime, duration_ms=1_000.0)
        for client in runtime.clients:
            timestamps = [rid[1] for _, _, rid in client.completions]
            assert timestamps == sorted(set(timestamps))

    def test_replicated_kv_store_converges(self, protocol):
        config = ClusterConfig(t=1, protocol=protocol, **FAST_TIMEOUTS)
        runtime = build_cluster(config, num_clients=2,
                                app_factory=KVStore, seed=11)
        for index, client in enumerate(runtime.clients):
            client.propose(("put", f"k{index}", index), size_bytes=32)
        runtime.sim.run(until=3_000.0)
        digests = {r.app.state_digest() for r in runtime.replicas
                   if r.committed_requests > 0}
        assert len(digests) == 1


class TestRelativePerformanceShapes:
    """The qualitative relations the paper's Figure 7 rests on, measured on
    a deterministic uniform-latency network so message-pattern costs are
    isolated."""

    @pytest.fixture(scope="class")
    def latencies(self):
        results = {}
        for protocol in ALL_PROTOCOLS:
            runtime = make_cluster(protocol, num_clients=4)
            driver = run_workload(runtime, duration_ms=2_000.0)
            results[protocol] = driver.latency.summary().mean
        return results

    def test_xpaxos_close_to_paxos(self, latencies):
        assert latencies[ProtocolName.XPAXOS] <= \
            1.5 * latencies[ProtocolName.PAXOS]

    def test_pbft_slower_than_xpaxos(self, latencies):
        assert latencies[ProtocolName.PBFT] > \
            latencies[ProtocolName.XPAXOS]

    def test_all_latencies_positive(self, latencies):
        assert all(v > 0 for v in latencies.values())


class TestBuildHoldsTheCollector:
    """``build_cluster`` pauses the cyclic GC while it allocates the
    cluster, collects only the youngest generation when it lets go, and
    leaves the collector as it found it."""

    def build(self, **kwargs):
        # 300 clients: several times the young-generation threshold.
        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                               **FAST_TIMEOUTS)
        return build_cluster(config, num_clients=300, **kwargs)

    def test_only_the_release_collects_and_only_the_young(self):
        import gc

        collections = []
        probe = lambda phase, info: collections.append(  # noqa: E731
            (phase, info["generation"]))
        gc.callbacks.append(probe)
        try:
            gc.collect()
            collections.clear()
            self.build()
        finally:
            gc.callbacks.remove(probe)
        assert collections == [("start", 0), ("stop", 0)]
        assert gc.isenabled()

    def test_collector_state_is_restored(self):
        import gc

        gc.disable()
        try:
            self.build()
            assert not gc.isenabled()
        finally:
            gc.enable()
        # A constructor that raises must not leave the collector off.
        with pytest.raises(TypeError):
            self.build(app_factory=lambda unexpected: None)
        assert gc.isenabled()
