"""``Network.send``: a payload of its own per receiver, in one call.

The contract: ``send(src, [(dst, payload, size_bytes), ...])`` is
observationally identical to one single-item ``send(src, [(dst, payload,
size_bytes)])`` per item, in order.  Each case below plays the same items
both ways, on twin fabrics, and compares everything the rest of the run
could see: the heap entries the sends left (in scheduling order), the
``NetworkStats``, the authenticators stamped, the latency draws with the
RNG state after them, and the uplink's serializations.  The runtime's
``NodeBase.send`` (``(dst, payload)`` items, each sized by its payload's
``wire_bytes``) is checked the same way, with its CPU charges, and
still refuses an unregistered class.
"""

from dataclasses import dataclass

import pytest

from repro.common.errors import ConfigurationError
from repro.crypto.authenticators import MAC_VECTOR, MODELED_MAC, NULL
from repro.crypto.costs import CostModel
from repro.crypto.primitives import KeyStore
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint, Network, NetworkStats
from repro.sim.core import Simulator
from repro.smr.runtime import NodeBase
from tests.conftest import Liveness

POLICIES = pytest.mark.parametrize(
    "policy", [NULL, MODELED_MAC, MAC_VECTOR],
    ids=["null", "modeled-mac", "mac-vector"])

#: Receivers over three sites: same-site (``b``), cross-site (``c``,
#: ``d``, ``e``) and loopback (``a``).
SITES = {"a": "X", "b": "X", "c": "Y", "d": "Y", "e": "Z"}


class Fabric:
    """A simulator, a network and five endpoints, recording every latency
    draw and uplink serialization the network asks for."""

    def __init__(self, bandwidth=False, jitter=0.0):
        self.sim = Simulator()
        latency = LatencyModel.uniform(("X", "Y", "Z"), one_way_ms=5.0,
                                       jitter=jitter, seed=11)
        if jitter:
            latency.deterministic = False
        bw = BandwidthModel(default_rate=400.0) if bandwidth else None
        self.net = Network(self.sim, latency, bandwidth=bw)
        self.up = dict.fromkeys(SITES, True)
        self.inbox = []
        for name, site in SITES.items():
            self.net.attach(Endpoint(
                name, site,
                lambda src, body, auth, size, name=name:
                    self.inbox.append((src, name, body, auth, size)),
                Liveness(lambda name=name: self.up[name])))
        self.draws = []
        sample = latency.sample_one_way
        latency.sample_one_way = (
            lambda *args: self.draws.append(("latency", args))
            or sample(*args))
        if bw is not None:
            serialize = bw.serialize
            bw.serialize = (
                lambda *args: self.draws.append(("uplink", args))
                or serialize(*args))

    def observed(self):
        """What the sends left behind, before anything is delivered."""
        entries = [(time, sequence, args[0].name, args[1:])
                   for time, sequence, _, args in sorted(self.sim._queue)]
        return (entries, self.net.stats, self.draws,
                self.net.latency._rng.getstate(), self.sim.pending)


def items_for(round_no=0):
    """Five replies, one per receiver, each its own object and size."""
    return [(dst, ("reply", dst, round_no), 32 + 100 * i)
            for i, dst in enumerate(("b", "c", "a", "d", "e"))]


def both_ways(policy, prepare=lambda fabric: None, rounds=3, **options):
    """Play ``rounds`` slots of replies through one ``send`` per slot and
    through a single-item ``send`` per reply; what each fabric observed
    must be equal.  Returns the one-call side."""
    keystore = KeyStore()
    sides = []
    for one_call in (True, False):
        fabric = Fabric(**options)
        prepare(fabric)
        for round_no in range(rounds):
            items = items_for(round_no)
            if one_call:
                fabric.net.send("a", items, authenticator=policy,
                                keystore=keystore)
            else:
                for item in items:
                    fabric.net.send("a", (item,), authenticator=policy,
                                    keystore=keystore)
        sides.append(fabric)
    one_call, sequential = sides
    assert one_call.observed() == sequential.observed()
    one_call.sim.run()
    sequential.sim.run()
    assert one_call.inbox == sequential.inbox
    assert one_call.net.stats == sequential.net.stats
    return one_call


@POLICIES
@pytest.mark.parametrize("options", [
    {},
    {"jitter": 3.0},
    {"bandwidth": True},
    {"bandwidth": True, "jitter": 2.0},
], ids=["same-tick", "jittered", "uplink", "jittered-uplink"])
def test_one_call_matches_sends_one_by_one(policy, options):
    fabric = both_ways(policy, **options)
    assert fabric.net.stats.messages_sent == 15
    assert fabric.net.stats.auth_stamped == 15
    assert len(fabric.inbox) == 15
    if options.get("bandwidth"):
        # Inter-site replies queued on the uplink; same-site and
        # loopback ones did not.
        uplinked = [args for kind, args in fabric.draws if kind == "uplink"]
        assert len(uplinked) == 9


def test_each_reply_gets_a_mac_over_its_own_body():
    fabric = both_ways(MAC_VECTOR)
    keystore = KeyStore()
    for src, dst, body, mac, _ in fabric.inbox:
        assert mac.receiver == dst
        assert keystore.verify_mac(mac, body)
    assert len({mac.digest for *_, mac, _ in fabric.inbox}) == 15


@POLICIES
def test_crashed_sender(policy):
    fabric = both_ways(policy,
                       prepare=lambda f: f.up.__setitem__("a", False))
    stats = fabric.net.stats
    assert (stats.messages_sent, stats.messages_dropped_crash,
            stats.auth_stamped, stats.messages_delivered) == (15, 15, 0, 0)
    assert fabric.draws == []


@POLICIES
def test_receiver_partitioned_mid_list(policy):
    fabric = both_ways(
        policy, bandwidth=True, jitter=1.0,
        prepare=lambda f: f.net.partitions.block_pair("a", "c"))
    assert fabric.net.stats.messages_dropped_partition == 3
    assert {dst for _, dst, *_ in fabric.inbox} == {"a", "b", "d", "e"}


@POLICIES
def test_send_filter_veto(policy):
    def prepare(fabric):
        fabric.net.send_filter = (
            lambda src, dst, payload: payload[2] != 1 or dst != "d")

    fabric = both_ways(policy, prepare=prepare)
    assert fabric.net.stats.messages_dropped_partition == 1


@POLICIES
def test_unknown_receiver_raises_before_anything_happens(policy):
    fabric = Fabric(bandwidth=True)
    items = items_for()
    items[3] = ("ghost",) + items[3][1:]
    with pytest.raises(ConfigurationError, match="ghost"):
        fabric.net.send("a", items, authenticator=policy,
                        keystore=KeyStore())
    assert fabric.net.stats == NetworkStats()
    assert fabric.draws == [] and fabric.sim.pending == 0


# -- the runtime entry -------------------------------------------------


@dataclass(frozen=True)
class _Reply:
    client: int
    body: bytes
    wire_bytes: int = 8


@dataclass(frozen=True)
class _Unregistered:
    client: int


def _node(fabric, cost_model):
    """The runtime side of endpoint ``s`` on ``fabric``."""
    return NodeBase(fabric.sim, fabric.net, "s", "X", KeyStore(),
                    cost_model=cost_model)


@pytest.mark.parametrize("cost_model", [CostModel(), CostModel.free()],
                         ids=["modelled", "free"])
def test_node_send_charges_each_reply_as_its_own_send(cost_model,
                                                      monkeypatch):
    from repro.crypto import authenticators

    monkeypatch.setitem(authenticators.POLICIES, _Reply, MAC_VECTOR)
    items = [(dst, _Reply(i, b"r" * i, 40 * i))
             for i, dst in enumerate(("b", "c", "d", "e"), start=1)]
    sides = []
    for one_call in (True, False):
        fabric = Fabric(jitter=1.0)
        node = _node(fabric, cost_model)
        if one_call:
            node.send(items)
        else:
            for dst, payload in items:
                node.send_authenticated(dst, payload)
        sides.append((fabric.observed(), node.cpu.busy_us))
    assert sides[0] == sides[1]
    assert (sides[0][1] > 0) == (cost_model.mac_us > 0)


def test_node_send_refuses_an_unregistered_class():
    fabric = Fabric()
    node = _node(fabric, None)
    with pytest.raises(ConfigurationError, match="_Unregistered"):
        node.send([("b", _Unregistered(1))])
    with pytest.raises(ConfigurationError, match="_Unregistered"):
        node.send_authenticated("b", _Unregistered(1))
    assert fabric.net.stats.messages_sent == 0


def test_node_send_refuses_mixed_classes(monkeypatch):
    from repro.crypto import authenticators

    monkeypatch.setitem(authenticators.POLICIES, _Reply, MAC_VECTOR)
    fabric = Fabric()
    node = _node(fabric, None)
    with pytest.raises(ConfigurationError, match="one message class"):
        node.send([("b", _Reply(1, b"")), ("c", ("plain",))])
    assert fabric.net.stats.messages_sent == 0
    node.send([])
    assert fabric.sim.pending == 0
