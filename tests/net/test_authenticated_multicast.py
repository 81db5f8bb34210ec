"""Tests for the authenticated verbs: per-receiver MACs stamped by the
transport as it fans out, with authenticator bytes in the size accounting.
``n`` sequential ``send_authenticated`` calls are the reference for what a
fan-out must do.
"""

import pytest

from repro.crypto.authenticators import MAC_VECTOR, MODELED_MAC, NULL
from repro.crypto.primitives import KeyStore, Mac
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint, Network
from repro.sim.core import Simulator


def make_net(fifo=False, bandwidth=False, jitter=0.0, seed=7):
    sim = Simulator()
    latency = LatencyModel.uniform(("X", "Y", "Z"), one_way_ms=5.0,
                                   jitter=jitter, seed=seed)
    if jitter:
        latency.deterministic = False
    bw = BandwidthModel(default_rate=1000.0) if bandwidth else None
    return sim, Network(sim, latency, bandwidth=bw, fifo=fifo)


class _AuthNode:
    """A sink endpoint recording authenticated deliveries."""

    def __init__(self, net, name, site):
        self.inbox = []
        self.auth_inbox = []
        self.up = True
        net.attach(Endpoint(
            name, site,
            lambda src, p: self.inbox.append((src, p)),
            lambda: self.up,
            deliver_auth=lambda src, body, auth, size:
                self.auth_inbox.append((src, body, auth, size))))


class _PlainNode:
    """An endpoint without an authenticated-delivery callback."""

    def __init__(self, net, name, site):
        self.inbox = []
        net.attach(Endpoint(name, site,
                            lambda src, p: self.inbox.append((src, p)),
                            lambda: True))


def build(**kwargs):
    sim, net = make_net(**kwargs)
    nodes = {
        "a": _AuthNode(net, "a", "X"),
        "b": _AuthNode(net, "b", "Y"),
        "c": _AuthNode(net, "c", "Y"),
        "d": _AuthNode(net, "d", "Z"),
    }
    return sim, net, nodes


class TestMacStamping:
    def test_each_receiver_gets_its_own_valid_mac(self):
        sim, net, nodes = build()
        keystore = KeyStore()
        body = ("prechk", 8, 0)
        net.multicast_authenticated("a", ["b", "c", "d"], body,
                                    size_bytes=44,
                                    authenticator=MAC_VECTOR,
                                    keystore=keystore)
        sim.run()
        macs = {}
        for name in ("b", "c", "d"):
            ((src, got, auth, size),) = nodes[name].auth_inbox
            assert src == "a" and got == body
            assert size == 44 + MAC_VECTOR.auth_bytes
            assert isinstance(auth, Mac)
            assert auth.sender == "a" and auth.receiver == name
            assert keystore.verify_mac(auth, body)
            macs[name] = auth
        # Channel-bound: the three MACs are all distinct.
        assert len({m._token for m in macs.values()}) == 3

    def test_payload_object_is_shared_not_copied(self):
        sim, net, nodes = build()
        body = ("big", b"x" * 64)
        net.multicast_authenticated("a", ["b", "c"], body,
                                    authenticator=NULL,
                                    keystore=KeyStore())
        sim.run()
        got_b = nodes["b"].auth_inbox[0][1]
        got_c = nodes["c"].auth_inbox[0][1]
        assert got_b is body and got_c is body

    def test_endpoint_without_auth_callback_gets_bare_body(self):
        sim, net = make_net()
        plain = _PlainNode(net, "p", "X")
        _AuthNode(net, "a", "X")
        net.multicast_authenticated("a", ["p"], "m",
                                    authenticator=MAC_VECTOR,
                                    keystore=KeyStore())
        sim.run()
        assert plain.inbox == [("a", "m")]


class TestAccounting:
    def test_bytes_include_authenticator_per_receiver(self):
        _, net, _ = build()
        net.multicast_authenticated("a", ["b", "c", "d"], "m",
                                    size_bytes=100,
                                    authenticator=MODELED_MAC,
                                    keystore=KeyStore())
        assert net.stats.bytes_sent == 3 * (100 + MODELED_MAC.auth_bytes)

    def test_null_policy_adds_no_bytes(self):
        _, net, _ = build()
        net.multicast_authenticated("a", ["b", "c"], "m", size_bytes=100,
                                    authenticator=NULL,
                                    keystore=KeyStore())
        assert net.stats.bytes_sent == 200

    def test_uplink_serializes_wire_bytes(self):
        # 980 + 20 MAC bytes = 1000 on the wire: exactly 1 ms at
        # 1000 B/ms, so two inter-site receivers give a 2 ms backlog.
        sim, net, _ = build(bandwidth=True)
        net.multicast_authenticated("a", ["b", "d"], "m", size_bytes=980,
                                    authenticator=MAC_VECTOR,
                                    keystore=KeyStore())
        assert net.bandwidth.backlog_ms("a", sim.now) == pytest.approx(2.0)


class TestDropSemantics:
    def test_partition_and_crash_drops_match_multicast(self):
        sim, net, nodes = build()
        net.partitions.block_pair("a", "c")
        nodes["d"].up = False
        net.multicast_authenticated("a", ["b", "c", "d"], "m",
                                    authenticator=MAC_VECTOR,
                                    keystore=KeyStore())
        sim.run()
        assert net.stats.messages_sent == 3
        assert net.stats.messages_dropped_partition == 1
        assert net.stats.messages_dropped_crash == 1
        assert net.stats.messages_delivered == 1
        assert len(nodes["b"].auth_inbox) == 1

    def test_crashed_sender_stamps_nothing(self):
        sim, net, nodes = build()
        nodes["a"].up = False
        net.multicast_authenticated("a", ["b", "c"], "m",
                                    authenticator=MAC_VECTOR,
                                    keystore=KeyStore())
        sim.run()
        assert net.stats.messages_dropped_crash == 2
        assert not nodes["b"].auth_inbox and not nodes["c"].auth_inbox

    def test_send_filter_probed_per_destination(self):
        sim, net, nodes = build()
        net.send_filter = lambda src, dst, payload: dst != "c"
        net.multicast_authenticated("a", ["b", "c", "d"], "m",
                                    authenticator=MAC_VECTOR,
                                    keystore=KeyStore())
        sim.run()
        assert not nodes["c"].auth_inbox
        assert nodes["b"].auth_inbox and nodes["d"].auth_inbox


def core_stats(net):
    s = net.stats
    return (s.messages_sent, s.messages_delivered,
            s.messages_dropped_partition, s.messages_dropped_crash,
            s.bytes_sent, s.auth_stamped)


class TestMatchesSequentialSends:
    """``multicast_authenticated`` against ``n`` sequential
    ``send_authenticated``: same deliveries at the same instants in the
    same order, same stats, byte-identical authenticators."""

    def _run(self, sequential, authenticator, **kwargs):
        sim, net, nodes = build(**kwargs)
        log = []
        keystore = KeyStore()
        for node in nodes.values():
            node.auth_inbox = log
        for round_no in range(25):
            body = ("m", round_no)
            if sequential:
                for dst in ("b", "c", "d"):
                    net.send_authenticated(
                        "a", dst, body, size_bytes=256,
                        authenticator=authenticator, keystore=keystore)
            else:
                net.multicast_authenticated(
                    "a", ["b", "c", "d"], body, size_bytes=256,
                    authenticator=authenticator, keystore=keystore)
        sim.run()
        wire = [(src, body, None if auth is None else tuple(auth), size)
                for src, body, auth, size in log]
        return wire, core_stats(net), sim.now

    @pytest.mark.parametrize("kwargs", [
        {},  # zero jitter: same-site receivers share every arrival tick
        {"jitter": 3.0},
        {"bandwidth": True, "fifo": True},
    ], ids=["same-tick", "jittered", "uplink-fifo"])
    def test_mac_vector_fanout(self, kwargs):
        multi = self._run(False, MAC_VECTOR, **kwargs)
        assert multi == self._run(True, MAC_VECTOR, **kwargs)
        wire, stats, _ = multi
        assert len(wire) == 75 and stats[5] == 75
        # Full MAC layout compared above, token bytes included; and
        # every one of them verifies for its own channel.
        keystore = KeyStore()
        for src, body, mac, _ in wire:
            assert keystore.verify_mac(Mac(*mac), body)

    def test_null_policy_fanout(self):
        assert self._run(False, NULL) == self._run(True, NULL)


class TestSendTimeAndDeliveryTimeChecks:
    """Partitions are judged when the message is sent, receiver crashes
    when it is delivered -- per receiver, for a fan-out exactly as for
    the same sends issued one by one."""

    @staticmethod
    def _send(net, sequential):
        keystore = KeyStore()
        if sequential:
            for dst in ("b", "c"):
                net.send_authenticated("a", dst, "m", size_bytes=64,
                                       authenticator=MAC_VECTOR,
                                       keystore=keystore)
        else:
            net.multicast_authenticated("a", ["b", "c"], "m", size_bytes=64,
                                        authenticator=MAC_VECTOR,
                                        keystore=keystore)

    @pytest.mark.parametrize("sequential", [False, True])
    def test_partition_at_send_time_respected_per_receiver(self, sequential):
        sim, net, nodes = build()
        net.partitions.block_pair("a", "c")
        self._send(net, sequential)
        sim.run()
        assert (len(nodes["b"].auth_inbox), len(nodes["c"].auth_inbox),
                net.stats.messages_dropped_partition) == (1, 0, 1)

    @pytest.mark.parametrize("sequential", [False, True])
    def test_partition_mid_flight_keeps_in_flight_messages(self, sequential):
        sim, net, nodes = build()
        self._send(net, sequential)
        net.partitions.block_pair("a", "c")
        sim.run()
        assert (len(nodes["b"].auth_inbox), len(nodes["c"].auth_inbox),
                net.stats.messages_dropped_partition) == (1, 1, 0)

    @pytest.mark.parametrize("sequential", [False, True])
    def test_crash_mid_flight_respected_per_receiver(self, sequential):
        # b and c share an arrival tick; only the crashed one loses out.
        sim, net, nodes = build()
        self._send(net, sequential)
        nodes["c"].up = False
        sim.run()
        assert (len(nodes["b"].auth_inbox), len(nodes["c"].auth_inbox),
                net.stats.messages_dropped_crash) == (1, 0, 1)
        # The MAC was stamped when the message left: a receiver that
        # crashes mid-flight has still cost its stamp.
        assert net.stats.auth_stamped == 2


class TestDeliveryScheduleEquivalence:
    def test_same_latency_draws_as_plain_multicast(self):
        """The authenticated path consumes latency samples in the same
        per-destination order as plain multicast: with equal seeds the
        delivery schedule is identical."""

        def run(authenticated):
            sim, net, nodes = build(jitter=3.0)
            order = []
            for node in nodes.values():
                node.inbox = order
                node.auth_inbox = order
            for round_no in range(20):
                if authenticated:
                    net.multicast_authenticated(
                        "a", ["b", "c", "d"], ("m", round_no),
                        size_bytes=64, authenticator=NULL,
                        keystore=KeyStore())
                else:
                    net.multicast("a", ["b", "c", "d"], ("m", round_no),
                                  size_bytes=64)
            sim.run()
            return [(src, body) if len(rest) == 0 else (src, body)
                    for src, body, *rest in order], sim.now

        plain = run(authenticated=False)
        authed = run(authenticated=True)
        assert authed == plain


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
                            runtime.keystore.mac("r0", "r1", "not-it"), 64)
        assert r1.auth_failures == 1
        assert r1.messages_received == received + 1
        assert 64 not in r1.checkpointer._prechk_votes
