"""Tests for the network's multicast verb.

The contract: ``multicast(src, dsts, p)`` is observationally identical to
``for dst in dsts: send(src, dst, p)`` -- same delivery order, same stats,
same RNG draw order -- it just resolves the sender side once.  Sequential
sends are the reference throughout.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.crypto.authenticators import MAC_VECTOR
from repro.crypto.primitives import KeyStore
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
    net = Network(sim, latency, bandwidth=bw, fifo=fifo)
    return sim, net


class _Node:
    def __init__(self, net, name, site):
        self.inbox = []
        self.up = True
        net.attach(Endpoint(name, site,
                            lambda src, p: self.inbox.append((src, p)),
                            lambda: self.up))


def build(fifo=False, bandwidth=False, jitter=0.0, seed=7):
    sim, net = make_net(fifo=fifo, bandwidth=bandwidth, jitter=jitter,
                        seed=seed)
    nodes = {
        "a": _Node(net, "a", "X"),
        "b": _Node(net, "b", "Y"),
        "c": _Node(net, "c", "Y"),
        "d": _Node(net, "d", "Z"),
    }
    return sim, net, nodes


def stats_tuple(net):
    s = net.stats
    return (s.messages_sent, s.messages_delivered,
            s.messages_dropped_partition, s.messages_dropped_crash,
            s.bytes_sent)


class TestEquivalence:
    def test_matches_sequential_sends_fifo_on(self):
        # Same seed, jittered latency, FIFO on: multicast must produce the
        # exact delivery schedule and stats of n sequential sends.
        trace_seq = self._run(sequential=True)
        trace_multi = self._run(sequential=False)
        assert trace_multi == trace_seq

    def _run(self, sequential):
        sim, net, nodes = build(fifo=True, bandwidth=True, jitter=2.0)
        dsts = ["b", "c", "d"]
        log = []
        for name, node in nodes.items():
            node.inbox = log  # shared log records global delivery order
        for round_no in range(20):
            if sequential:
                for dst in dsts:
                    net.send("a", dst, ("batch", round_no), size_bytes=512)
            else:
                net.multicast("a", dsts, ("batch", round_no), size_bytes=512)
        sim.run()
        return log, stats_tuple(net), sim.now

    def test_matches_sequential_sends_fifo_off(self):
        def run(sequential):
            sim, net, nodes = build(fifo=False, jitter=3.0)
            order = []
            for node in nodes.values():
                node.inbox = order
            payload = "m"
            if sequential:
                for dst in ("b", "c", "d"):
                    net.send("a", dst, payload, size_bytes=64)
            else:
                net.multicast("a", ("b", "c", "d"), payload, size_bytes=64)
            sim.run()
            return order, stats_tuple(net), sim.now

        assert run(True) == run(False)

    def test_matches_sequential_sends_when_receivers_share_a_tick(self):
        # Zero jitter: b and c sit in one site and get the same arrival
        # instant, round after round.  Each receiver still has its own
        # delivery event, and ties resolve in destination order.
        def run(sequential):
            sim, net, nodes = build()
            log = []
            for node in nodes.values():
                node.inbox = log
            for round_no in range(25):
                if sequential:
                    for dst in ("b", "c", "d"):
                        net.send("a", dst, ("m", round_no), size_bytes=256)
                else:
                    net.multicast("a", ("b", "c", "d"), ("m", round_no),
                                  size_bytes=256)
            sim.run()
            return log, stats_tuple(net), sim.now, sim.stats()["executed"]

        multi = run(False)
        assert multi == run(True)
        assert multi[3] == 75  # one event per receiver


class TestDropAccounting:
    def test_partitioned_destination_counted_per_message(self):
        sim, net, nodes = build()
        net.partitions.block_pair("a", "c")
        net.multicast("a", ["b", "c", "d"], "m")
        sim.run()
        assert net.stats.messages_sent == 3
        assert net.stats.messages_dropped_partition == 1
        assert net.stats.messages_delivered == 2
        assert nodes["c"].inbox == []

    def test_crashed_sender_drops_all(self):
        sim, net, nodes = build()
        nodes["a"].up = False
        net.multicast("a", ["b", "c", "d"], "m")
        sim.run()
        assert net.stats.messages_sent == 3
        assert net.stats.messages_dropped_crash == 3
        assert net.stats.messages_delivered == 0

    def test_send_filter_probed_per_destination(self):
        sim, net, nodes = build()
        censored = []
        net.send_filter = (
            lambda src, dst, payload: censored.append(dst) or dst != "c")
        net.multicast("a", ["b", "c", "d"], "m")
        sim.run()
        assert censored == ["b", "c", "d"]
        assert net.stats.messages_dropped_partition == 1
        assert nodes["c"].inbox == []
        assert nodes["b"].inbox and nodes["d"].inbox

    def test_crashed_receiver_drops_at_delivery(self):
        sim, net, nodes = build()
        net.multicast("a", ["b", "c"], "m")
        nodes["b"].up = False
        sim.run()
        assert nodes["b"].inbox == []
        assert nodes["c"].inbox == [("a", "m")]
        assert net.stats.messages_dropped_crash == 1

    def test_bytes_counted_per_destination(self):
        sim, net, _ = build()
        net.multicast("a", ["b", "c", "d"], "m", size_bytes=100)
        assert net.stats.bytes_sent == 300


class TestErrors:
    def test_unknown_source_rejected(self):
        _, net, _ = build()
        with pytest.raises(ConfigurationError):
            net.multicast("ghost", ["b"], "m")

    def test_unknown_destination_rejected(self):
        _, net, _ = build()
        with pytest.raises(ConfigurationError):
            net.multicast("a", ["b", "ghost"], "m")

    @pytest.mark.parametrize("authenticated", [False, True])
    def test_unknown_destination_mid_list_has_no_side_effects(
            self, authenticated):
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
            if authenticated:
                net.multicast_authenticated(
                    "a", ["b", "ghost", "d"], "m", size_bytes=500,
                    authenticator=MAC_VECTOR, keystore=KeyStore())
            else:
                net.multicast("a", ["b", "ghost", "d"], "m", size_bytes=500)
        assert stats_tuple(net) == (0, 0, 0, 0, 0)
        assert net.stats.auth_stamped == 0
        assert draws == []
        assert net.bandwidth.backlog_ms("a", sim.now) == 0.0
        assert sim.pending == 0
        sim.run()
        assert all(node.inbox == [] for node in nodes.values())


class TestBandwidthInteraction:
    def test_uplink_serializes_per_destination(self):
        # Three 1000-byte inter-site messages at rate 1000 B/ms leave the
        # uplink back to back: departures at 1, 2 and 3 ms.
        sim, net, nodes = build(bandwidth=True)
        net.multicast("a", ["b", "d"], "m", size_bytes=1000)
        net.multicast("a", ["c"], "m2", size_bytes=1000)
        assert net.bandwidth.backlog_ms("a", sim.now) == pytest.approx(3.0)
        sim.run()
        assert nodes["b"].inbox and nodes["c"].inbox and nodes["d"].inbox
