"""Tests for the network's fan-out: per-receiver authenticators stamped
by the transport as it fans out, with authenticator bytes in the size
accounting.

The contract: one ``Network.send`` of payload ``p`` to ``dsts`` is
observationally identical to one single-item ``send`` per destination,
in order -- same delivery order, same stats, same RNG draw order, same
authenticators -- it just resolves the sender side once.  Sequential
sends are the reference throughout, and every contract that does not
depend on what an authenticator is runs under both the ``NULL`` policy
(a plain send) and ``MAC_VECTOR``.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.crypto.authenticators import MAC_VECTOR, MODELED_MAC, NULL
from repro.crypto.primitives import KeyStore, Mac
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint, Network
from repro.sim.core import Simulator
from tests.conftest import Liveness, channel_mac

#: The ``NULL`` column (a plain send) and the ``MAC_VECTOR`` column.
POLICIES = pytest.mark.parametrize("policy", [NULL, MAC_VECTOR],
                                   ids=["null", "mac-vector"])


def make_net(bandwidth=False, jitter=0.0, seed=7):
    sim = Simulator()
    latency = LatencyModel.uniform(("X", "Y", "Z"), one_way_ms=5.0,
                                   jitter=jitter, seed=seed)
    if jitter:
        latency.deterministic = False
    bw = BandwidthModel(default_rate=1000.0) if bandwidth else None
    return sim, Network(sim, latency, bandwidth=bw)


class _Node:
    """A sink endpoint recording ``(src, body, auth, size)`` deliveries."""

    def __init__(self, net, name, site):
        self.inbox = []
        self.up = True
        net.attach(Endpoint(
            name, site,
            lambda src, body, auth, size:
                self.inbox.append((src, body, auth, size)),
            Liveness(lambda: self.up)))


def build(**kwargs):
    sim, net = make_net(**kwargs)
    nodes = {
        "a": _Node(net, "a", "X"),
        "b": _Node(net, "b", "Y"),
        "c": _Node(net, "c", "Y"),
        "d": _Node(net, "d", "Z"),
    }
    return sim, net, nodes


def multicast(net, dsts, body, policy, size_bytes=0, keystore=None):
    """One fan-out from ``a`` under ``policy``."""
    if keystore is None:
        keystore = KeyStore()
    net.send("a", [(dst, body, size_bytes) for dst in dsts],
             authenticator=policy, keystore=keystore)


def send_one(net, dst, body, policy, size_bytes, keystore):
    """A single-receiver send from ``a``: the sequential reference."""
    net.send("a", ((dst, body, size_bytes),), authenticator=policy,
             keystore=keystore)


class TestMacStamping:
    def test_each_receiver_gets_its_own_valid_mac(self):
        sim, net, nodes = build()
        keystore = KeyStore()
        body = ("prechk", 8, 0)
        multicast(net, ["b", "c", "d"], body, MAC_VECTOR, 44, keystore)
        sim.run()
        macs = {}
        for name in ("b", "c", "d"):
            ((src, got, auth, size),) = nodes[name].inbox
            assert src == "a" and got == body
            assert size == 44 + MAC_VECTOR.auth_bytes
            assert isinstance(auth, Mac)
            assert auth.sender == "a" and auth.receiver == name
            assert keystore.verify_mac(auth, body)
            macs[name] = auth
        # Channel-bound: the three MACs are all distinct.
        assert len({m._token for m in macs.values()}) == 3

    @POLICIES
    def test_payload_object_is_shared_not_copied(self, policy):
        sim, net, nodes = build()
        body = ("big", b"x" * 64)
        multicast(net, ["b", "c"], body, policy)
        sim.run()
        assert nodes["b"].inbox[0][1] is body
        assert nodes["c"].inbox[0][1] is body


class TestAccounting:
    def test_bytes_include_authenticator_per_receiver(self):
        _, net, _ = build()
        multicast(net, ["b", "c", "d"], "m", MODELED_MAC, size_bytes=100)
        assert net.stats.bytes_sent == 3 * (100 + MODELED_MAC.auth_bytes)

    def test_null_policy_adds_no_bytes(self):
        _, net, _ = build()
        multicast(net, ["b", "c"], "m", NULL, size_bytes=100)
        assert net.stats.bytes_sent == 200

    @POLICIES
    def test_uplink_serializes_wire_bytes(self, policy):
        # Three messages of 1000 wire bytes (authenticator included) at
        # 1000 B/ms leave the uplink back to back: departures at 1, 2
        # and 3 ms.
        sim, net, nodes = build(bandwidth=True)
        size = 1000 - policy.auth_bytes
        multicast(net, ["b", "d"], "m", policy, size)
        multicast(net, ["c"], "m2", policy, size)
        # An empty message queued now leaves when the uplink frees.
        assert net.bandwidth.serialize("a", 0, sim.now) == pytest.approx(3.0)
        sim.run()
        assert all(nodes[name].inbox for name in ("b", "c", "d"))


class TestDropSemantics:
    @POLICIES
    def test_partition_and_crash_drops_counted_per_message(self, policy):
        sim, net, nodes = build()
        net.partitions.block_pair("a", "c")
        nodes["d"].up = False
        multicast(net, ["b", "c", "d"], "m", policy)
        sim.run()
        assert net.stats.messages_sent == 3
        assert net.stats.messages_dropped_partition == 1
        assert net.stats.messages_dropped_crash == 1
        assert net.stats.messages_delivered == 1
        assert len(nodes["b"].inbox) == 1
        assert nodes["c"].inbox == [] and nodes["d"].inbox == []

    @POLICIES
    def test_crashed_sender_stamps_nothing(self, policy):
        sim, net, nodes = build()
        nodes["a"].up = False
        multicast(net, ["b", "c", "d"], "m", policy)
        sim.run()
        assert net.stats.messages_sent == 3
        assert net.stats.messages_dropped_crash == 3
        assert net.stats.messages_delivered == 0
        assert net.stats.auth_stamped == 0
        assert all(node.inbox == [] for node in nodes.values())

    @POLICIES
    def test_send_filter_probed_per_destination(self, policy):
        sim, net, nodes = build()
        censored = []
        net.send_filter = (
            lambda src, dst, payload: censored.append(dst) or dst != "c")
        multicast(net, ["b", "c", "d"], "m", policy)
        sim.run()
        assert censored == ["b", "c", "d"]
        assert net.stats.messages_dropped_partition == 1
        assert nodes["c"].inbox == []
        assert nodes["b"].inbox and nodes["d"].inbox


class TestErrors:
    @POLICIES
    def test_unknown_source_rejected(self, policy):
        _, net, _ = build()
        with pytest.raises(ConfigurationError):
            net.send("ghost", [("b", "m", 0)], authenticator=policy,
                     keystore=KeyStore())

    @POLICIES
    def test_unknown_destination_rejected(self, policy):
        _, net, _ = build()
        with pytest.raises(ConfigurationError):
            multicast(net, ["b", "ghost"], "m", policy)

    @POLICIES
    def test_unknown_destination_mid_list_has_no_side_effects(self, policy):
        # Every name is resolved before stats, RNG or the uplink are
        # touched: a fan-out that raises must not have half-happened.
        # (It used to count all n as sent and draw latency for the
        # receivers before the bad name, then deliver to none of them.)
        sim, net, nodes = build(bandwidth=True, jitter=2.0)
        draws = []
        sample = net.latency.sample_one_way
        net.latency.sample_one_way = (
            lambda *args, **kwargs: draws.append(args) or sample(
                *args, **kwargs))
        with pytest.raises(ConfigurationError, match="ghost"):
            multicast(net, ["b", "ghost", "d"], "m", policy, 500)
        assert core_stats(net) == (0, 0, 0, 0, 0, 0)
        assert draws == []
        assert net.bandwidth.bytes_sent("a") == 0
        assert sim.pending == 0
        sim.run()
        assert all(node.inbox == [] for node in nodes.values())


def core_stats(net):
    s = net.stats
    return (s.messages_sent, s.messages_delivered,
            s.messages_dropped_partition, s.messages_dropped_crash,
            s.bytes_sent, s.auth_stamped)


class TestMatchesSequentialSends:
    """One fan-out against ``n`` sequential single-item sends: same
    deliveries at the same instants in the
    same order, same stats, same events, byte-identical
    authenticators."""

    def _run(self, sequential, authenticator, **kwargs):
        sim, net, nodes = build(**kwargs)
        log = []
        keystore = KeyStore()
        for node in nodes.values():
            node.inbox = log  # shared log records global delivery order
        for round_no in range(25):
            body = ("m", round_no)
            if sequential:
                for dst in ("b", "c", "d"):
                    send_one(net, dst, body, authenticator, 256, keystore)
            else:
                multicast(net, ["b", "c", "d"], body, authenticator, 256,
                          keystore)
        sim.run()
        wire = [(src, body, None if auth is None else tuple(auth), size)
                for src, body, auth, size in log]
        return wire, core_stats(net), sim.now, sim.stats()["executed"]

    @POLICIES
    @pytest.mark.parametrize("kwargs", [
        {},  # zero jitter: same-site receivers share every arrival tick
        {"jitter": 3.0},
        {"bandwidth": True},
        {"bandwidth": True, "jitter": 2.0},
    ], ids=["same-tick", "jittered", "uplink", "jittered-uplink"])
    def test_fanout_matches_sequential_sends(self, kwargs, policy):
        multi = self._run(False, policy, **kwargs)
        assert multi == self._run(True, policy, **kwargs)
        wire, stats, _, executed = multi
        # One stamp and one delivery event per receiver.
        assert len(wire) == 75 and stats[5] == 75 and executed == 75
        if policy is NULL:
            assert all(mac is None for _, _, mac, _ in wire)
            return
        # Full MAC layout compared above, token bytes included; and
        # every one of them verifies for its own channel.
        keystore = KeyStore()
        for src, body, mac, _ in wire:
            assert keystore.verify_mac(Mac(*mac), body)


class TestSendTimeAndDeliveryTimeChecks:
    """Partitions are judged when the message is sent, receiver crashes
    when it is delivered -- per receiver, for a fan-out exactly as for
    the same sends issued one by one."""

    @staticmethod
    def _send(net, sequential, policy):
        keystore = KeyStore()
        if sequential:
            for dst in ("b", "c"):
                send_one(net, dst, "m", policy, 64, keystore)
        else:
            multicast(net, ["b", "c"], "m", policy, 64, keystore)

    @POLICIES
    @pytest.mark.parametrize("sequential", [False, True])
    def test_partition_at_send_time_respected_per_receiver(self, sequential,
                                                           policy):
        sim, net, nodes = build()
        net.partitions.block_pair("a", "c")
        self._send(net, sequential, policy)
        sim.run()
        assert (len(nodes["b"].inbox), len(nodes["c"].inbox),
                net.stats.messages_dropped_partition) == (1, 0, 1)

    @POLICIES
    @pytest.mark.parametrize("sequential", [False, True])
    def test_partition_mid_flight_keeps_in_flight_messages(self, sequential,
                                                           policy):
        sim, net, nodes = build()
        self._send(net, sequential, policy)
        net.partitions.block_pair("a", "c")
        sim.run()
        assert (len(nodes["b"].inbox), len(nodes["c"].inbox),
                net.stats.messages_dropped_partition) == (1, 1, 0)

    @POLICIES
    @pytest.mark.parametrize("sequential", [False, True])
    def test_crash_mid_flight_respected_per_receiver(self, sequential,
                                                     policy):
        # b and c share an arrival tick; only the crashed one loses out.
        sim, net, nodes = build()
        self._send(net, sequential, policy)
        nodes["c"].up = False
        sim.run()
        assert (len(nodes["b"].inbox), len(nodes["c"].inbox),
                net.stats.messages_dropped_crash) == (1, 0, 1)
        # The authenticator was stamped when the message left: a
        # receiver that crashes mid-flight has still cost its stamp.
        assert net.stats.auth_stamped == 2


class TestDeliveryScheduleEquivalence:
    def test_same_latency_draws_as_plain_multicast(self):
        """``MAC_VECTOR`` consumes latency samples in the same
        per-destination order as a plain (``NULL``) multicast: with
        equal seeds the delivery schedule is identical."""

        def run(policy):
            sim, net, nodes = build(jitter=3.0)
            order = []
            for node in nodes.values():
                node.inbox = order
            keystore = KeyStore()
            for round_no in range(20):
                multicast(net, ["b", "c", "d"], ("m", round_no), policy,
                          64, keystore)
            sim.run()
            return [(src, body) for src, body, _, _ in order], sim.now

        assert run(MAC_VECTOR) == run(NULL)


class TestNodeRuntimeVerification:
    def _cluster(self):
        from tests.conftest import make_cluster

        return make_cluster()

    def test_forged_delivery_counted_and_dropped(self):
        from repro.protocols.xpaxos import messages as msg

        runtime = self._cluster()
        r1 = runtime.replica(1)
        prechk = msg.PreChk(seqno=64, view=0, state_digest=b"s" * 32,
                            sender=0)
        received = r1.messages_received
        r1._on_deliver_auth("r0", prechk,
                            channel_mac(runtime.keystore, "r0", "r1", "not-it"), 64)
        assert r1.auth_failures == 1
        assert r1.messages_received == received + 1
        assert 64 not in r1.checkpointer._prechk_votes
