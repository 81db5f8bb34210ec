"""Tests for the replicated coordination service."""

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.protocols.registry import build_cluster
from repro.workloads.clients import make_driver
from repro.zk.service import CoordinationService, zk_write_op
from tests.conftest import FAST_TIMEOUTS


class TestLocalSemantics:
    def test_create_get_set(self):
        service = CoordinationService()
        assert service.execute(("create", "/a", b"x")) == ("ok", "/a")
        assert service.execute(("get", "/a")) == ("ok", b"x", 0)
        assert service.execute(("set", "/a", b"y")) == ("ok", 1)

    def test_errors_are_values_not_exceptions(self):
        service = CoordinationService()
        assert service.execute(("get", "/missing")) == ("error", "NoNode")
        assert service.execute("garbage") == ("error", "BadArguments")
        assert service.execute(("bogus-verb",)) == ("error", "BadArguments")

    def test_exists_children_delete(self):
        service = CoordinationService()
        service.execute(("create", "/a", b""))
        assert service.execute(("exists", "/a")) == ("ok", True)
        service.execute(("create", "/a/b", b""))
        assert service.execute(("children", "/a")) == ("ok", ("b",))
        service.execute(("delete", "/a/b"))
        assert service.execute(("exists", "/a/b")) == ("ok", False)

    def test_bench_write_creates_then_versions(self):
        service = CoordinationService()
        op = zk_write_op(client_id=3, seq=1)
        assert service.execute(op)[0] == "ok"
        op2 = zk_write_op(client_id=3, seq=2)
        status, version = service.execute(op2)
        assert status == "ok" and version >= 1

    @pytest.mark.parametrize("operation", [
        ("create", "/a"),
        ("get",),
        ("set", "/bench"),
        ("delete",),
        ("exists",),
        ("children",),
        ("expire",),
        ("bench-write", "/bench/c0"),
    ], ids=lambda op: op[0])
    def test_wrong_arity_is_refused_not_raised(self, operation):
        """A known verb with missing arguments is an error value, like an
        unknown verb: every replica must reply, and reply alike."""
        service = CoordinationService()
        before = service.state_digest()
        assert service.execute(operation) == ("error", "BadArguments")
        assert service.state_digest() == before

    @pytest.mark.parametrize("operation", [7, None, "create", ["get", "/bench"],
                                           ()],
                             ids=["int", "none", "str", "list", "empty"])
    def test_non_tuple_operations_are_refused(self, operation):
        """A bare ``int`` is what a driver without ``zk_write_op`` sends."""
        service = CoordinationService()
        assert service.execute(operation) == ("error", "BadArguments")
        assert service.execute(("children", "/bench")) == ("ok", ())

    def test_bench_write_stores_seq_and_size(self):
        service = CoordinationService()
        service.execute(zk_write_op(client_id=2, seq=5, payload_size=1024))
        assert service.execute(("get", "/bench/c2")) == ("ok", b"5:1024", 1)

    def test_bench_writes_of_two_clients_use_two_znodes(self):
        service = CoordinationService()
        for client_id in (0, 1, 0):
            service.execute(zk_write_op(client_id=client_id, seq=1))
        assert service.execute(("children", "/bench")) == \
            ("ok", ("c0", "c1"))
        assert service.execute(("get", "/bench/c0"))[2] == 2

    def test_write_and_refusal_replies_have_one_length(self):
        """Both are pairs, so a reply's wire size does not tell a refused
        write from an applied one."""
        service = CoordinationService()
        written = service.execute(zk_write_op(client_id=0, seq=1))
        refused = service.execute(0)
        assert written == ("ok", 1)
        assert len(written) == len(refused) == 2

    def test_determinism(self):
        a, b = CoordinationService(), CoordinationService()
        script = [
            ("create", "/x", b"1"),
            ("set", "/x", b"2"),
            ("create", "/x/y", b""),
            ("delete", "/x/y"),
            ("get", "/x"),
        ]
        for op in script:
            assert a.execute(op) == b.execute(op)
        assert a.state_digest() == b.state_digest()

    def test_snapshot_restore(self):
        service = CoordinationService()
        service.execute(("create", "/k", b"v"))
        clone = CoordinationService()
        clone.restore(service.snapshot())
        assert clone.state_digest() == service.state_digest()


class TestReplicatedService:
    @pytest.mark.parametrize("protocol", [
        ProtocolName.XPAXOS, ProtocolName.PAXOS, ProtocolName.ZAB,
        ProtocolName.PBFT, ProtocolName.ZYZZYVA,
    ])
    def test_writes_replicate_under_every_protocol(self, protocol):
        config = ClusterConfig(t=1, protocol=protocol, **FAST_TIMEOUTS)
        runtime = build_cluster(config, num_clients=1,
                                app_factory=CoordinationService, seed=4)
        client = runtime.clients[0]
        results = []
        client.on_result = results.append
        client.propose(zk_write_op(client_id=0, seq=1), size_bytes=1024)
        runtime.sim.run(until=2_000.0)
        assert results and results[0][0] == "ok"

    def test_xpaxos_replicates_tree(self):
        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                               **FAST_TIMEOUTS)
        runtime = build_cluster(config, num_clients=1,
                                app_factory=CoordinationService, seed=5)
        client = runtime.clients[0]
        results = []
        client.on_result = results.append
        client.propose(("create", "/job", b"payload"), size_bytes=64)
        runtime.sim.run(until=1_000.0)
        assert results == [("ok", "/job")]
        # Both active replicas hold the znode.
        for replica_id in (0, 1):
            app = runtime.replica(replica_id).app
            assert app.tree.exists("/job")

    def test_divergence_detectable_by_digest(self):
        """The state digest is the divergence oracle used by the safety
        harness: equal histories -> equal digests across replicas."""
        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                               **FAST_TIMEOUTS)
        runtime = build_cluster(config, num_clients=2,
                                app_factory=CoordinationService, seed=6)
        for index, client in enumerate(runtime.clients):
            client.propose(("create", f"/n{index}", b"x"), size_bytes=32)
        runtime.sim.run(until=2_000.0)
        digests = {runtime.replica(i).app.state_digest() for i in (0, 1)}
        assert len(digests) == 1


def _zk_cluster(protocol, num_clients=3, seed=7):
    config = ClusterConfig(t=1, protocol=protocol, **FAST_TIMEOUTS)
    runtime = build_cluster(config, num_clients=num_clients,
                            app_factory=CoordinationService, seed=seed)
    workload = WorkloadConfig(num_clients=num_clients, request_size=1024,
                              duration_ms=1_000.0, warmup_ms=100.0)
    return runtime, workload


class TestDrivenWrites:
    """The closed-loop driver with ``zk_write_op``, as Figure 10 runs it."""

    @pytest.mark.parametrize("protocol", list(ProtocolName),
                             ids=[p.value for p in ProtocolName])
    def test_every_executing_replica_holds_each_writer_znode(self, protocol):
        runtime, workload = _zk_cluster(protocol)
        driver = make_driver(runtime, workload, zk_write_op)
        driver.run()
        writers = [c.client_id for c in runtime.clients if c.completions]
        assert writers == [c.client_id for c in runtime.clients]
        executed = [r for r in runtime.replicas if r.ex]
        assert len(executed) >= runtime.config.active_count
        for replica in executed:
            children = replica.app.execute(("children", "/bench"))
            assert children == ("ok", tuple(f"c{i}" for i in writers))

    def test_default_ops_are_refused_by_the_service(self):
        """Without ``zk_write_op`` the driver's ops commit, but the
        service refuses every one and its tree stays empty."""
        runtime, workload = _zk_cluster(ProtocolName.XPAXOS)
        results = []
        for client in runtime.clients:
            client.on_result = results.append
        make_driver(runtime, workload).run()
        assert results
        assert set(results) == {("error", "BadArguments")}
        for replica in runtime.replicas:
            assert replica.app.execute(("children", "/bench")) == ("ok", ())
