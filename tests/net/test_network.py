"""Tests for the message-delivery fabric."""

import pytest

from repro.common.errors import ConfigurationError
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import INTRA_SITE_MS, LatencyModel
from repro.net.network import Endpoint, Network
from repro.sim.core import Simulator
from tests.conftest import multicast_plain, send_plain


def make_net(bandwidth=None, sites=("X", "Y")):
    sim = Simulator()
    latency = LatencyModel.uniform(sites, one_way_ms=5.0)
    net = Network(sim, latency, bandwidth=bandwidth)
    return sim, net


class _Node:
    def __init__(self, net, name, site):
        self.inbox = []
        self.up = True
        net.attach(Endpoint(
            name, site,
            lambda src, p, auth, size: self.inbox.append((src, p)),
            lambda: self.up))


class TestDelivery:
    def test_message_delivered_with_latency(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        send_plain(net, "a", "b", "hello")
        sim.run()
        assert b.inbox == [("a", "hello")]
        assert sim.now == 5.0

    def test_intra_site_latency(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "X")
        send_plain(net, "a", "b", "m")
        sim.run()
        assert sim.now == INTRA_SITE_MS

    def test_broadcast(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        c = _Node(net, "c", "Y")
        multicast_plain(net, "a", ["b", "c"], "m")
        sim.run()
        assert b.inbox and c.inbox

    def test_duplicate_endpoint_rejected(self):
        _, net = make_net()
        _Node(net, "a", "X")
        with pytest.raises(ConfigurationError):
            _Node(net, "a", "X")

    def test_unknown_endpoint_rejected(self):
        _, net = make_net()
        _Node(net, "a", "X")
        with pytest.raises(ConfigurationError):
            send_plain(net, "a", "ghost", "m")


class TestFaults:
    def test_partitioned_pair_drops(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        net.partitions.block_pair("a", "b")
        send_plain(net, "a", "b", "m")
        sim.run()
        assert b.inbox == []
        assert net.stats.messages_dropped_partition == 1

    def test_crashed_receiver_drops_at_delivery(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        send_plain(net, "a", "b", "m")
        sim.call_at(1.0, lambda: setattr(b, "up", False))
        sim.run()
        assert b.inbox == []
        assert net.stats.messages_dropped_crash == 1

    def test_crashed_sender_cannot_send(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        a.up = False
        send_plain(net, "a", "b", "m")
        sim.run()
        assert b.inbox == []

    def test_receiver_up_again_after_drop_window(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        b.up = False
        send_plain(net, "a", "b", "lost")
        sim.run()
        b.up = True
        send_plain(net, "a", "b", "received")
        sim.run()
        assert b.inbox == [("a", "received")]

    def test_send_filter_censors(self):
        sim, net = make_net()
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        net.send_filter = lambda src, dst, payload: payload != "censored"
        send_plain(net, "a", "b", "censored")
        send_plain(net, "a", "b", "ok")
        sim.run()
        assert b.inbox == [("a", "ok")]


class TestUnordered:
    def test_jitter_reorders_messages_between_one_pair(self):
        # Channels are independent: under jitter a later send can arrive
        # first, and receivers buffer what outruns its predecessor.  (With
        # correlated draws, sends in one window share a delay, so the
        # window is off here.)
        sim = Simulator()
        latency = LatencyModel.uniform(["X", "Y"], one_way_ms=5.0,
                                       jitter=3.0, seed=1)
        latency.deterministic = False
        latency.correlation_window_ms = 0.0
        net = Network(sim, latency)
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        for i in range(20):
            send_plain(net, "a", "b", i)
        sim.run()
        received = [p for _, p in b.inbox]
        assert sorted(received) == list(range(20))
        assert received != list(range(20))


class TestBandwidthIntegration:
    def test_inter_site_charged_intra_site_free(self):
        bw = BandwidthModel(default_rate=1000.0)
        sim, net = make_net(bandwidth=bw)
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        c = _Node(net, "c", "X")
        send_plain(net, "a", "b", "wan", 10_000)  # 10 ms serialization
        send_plain(net, "a", "c", "lan", 10_000)  # free intra-site
        sim.run()
        assert bw.bytes_sent("a") == 10_000

    def test_uplink_delays_departure(self):
        bw = BandwidthModel(default_rate=1000.0)
        sim, net = make_net(bandwidth=bw)
        a = _Node(net, "a", "X")
        b = _Node(net, "b", "Y")
        send_plain(net, "a", "b", "m", 10_000)
        sim.run()
        # 10 ms serialization + 5 ms propagation.
        assert sim.now == pytest.approx(15.0)


class TestTimely:
    def test_timely_respects_partition(self):
        _, net = make_net()
        _Node(net, "a", "X")
        _Node(net, "b", "Y")
        assert net.timely("a", "b", delta_ms=10.0)
        net.partitions.block_pair("a", "b")
        assert not net.timely("a", "b", delta_ms=10.0)

    def test_timely_respects_delta(self):
        _, net = make_net()
        _Node(net, "a", "X")
        _Node(net, "b", "Y")
        assert not net.timely("a", "b", delta_ms=1.0)  # mean one-way is 5

    def test_timely_false_for_crashed(self):
        _, net = make_net()
        a = _Node(net, "a", "X")
        _Node(net, "b", "Y")
        a.up = False
        assert not net.timely("a", "b", delta_ms=100.0)
