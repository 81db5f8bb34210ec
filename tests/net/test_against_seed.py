"""The network against its oracle: the preserved seed send path.

``SeedNetwork`` (``repro.harness.seed_reference``) is the simplest reading
of the delivery contract -- per message: sender up?, queue on the uplink,
draw a one-way delay, clamp to FIFO, schedule a closure that checks the
receiver at delivery time -- with none of the current fabric's machinery
(one ``_fan_out`` behind two verbs, resolve-first, argument-carrying
heap entries, authenticator stamping).  Every test here plays one script
against both fabrics, each on its own simulator, latency model and uplink
model, and demands the same ``(time, src, dst, payload)`` delivery
*trace*, the same ``pending`` count and the same latency-RNG state.

The current fabric is driven the way protocols drive it, through
``send_authenticated`` / ``multicast_authenticated``, under each of the
``NULL``, ``MODELED_MAC`` and ``MAC_VECTOR`` policies.  The seed knows no
authenticators: it sends each message with the bytes the policy adds on
the wire (``size_bytes + policy.auth_bytes``).

Only what the seed models is scripted: no partitions and no
``send_filter`` (``test_authenticated_multicast.py`` covers those
against sequential sends).
"""

import random

import pytest

from repro.crypto.authenticators import MAC_VECTOR, MODELED_MAC, NULL
from repro.crypto.primitives import KeyStore
from repro.harness.seed_reference import SeedNetwork, SeedSimulator
from repro.net.bandwidth import DEFAULT_UPLINK_BYTES_PER_MS, BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint, Network
from repro.sim.core import Simulator

SITES = ("CA", "VA", "JP")
NAMES = tuple(f"n{i}" for i in range(9))

#: Far past the last delivery of any script here (EC2 one-way delays are
#: capped below 90 virtual seconds).
HORIZON_MS = 3_600_000.0

#: Every test runs once per authenticator policy the current fabric
#: sends under.
pytestmark = pytest.mark.parametrize(
    "policy", [NULL, MODELED_MAC, MAC_VECTOR],
    ids=["null", "modeled-mac", "mac-vector"])


class Fabric:
    """One side of the comparison: a simulator, a network on top of it,
    nine endpoints over three sites (same-site, cross-site and loopback
    pairs all occur) and the delivery trace they write.  Scripts send
    through :meth:`send` and :meth:`broadcast`, which speak each
    fabric's verbs."""

    def __init__(self, current, policy, seed=0,
                 uplink_rate=None, correlation_window_ms=250.0,
                 on_delivery=None):
        self.current = current
        self.policy = policy
        self.keystore = KeyStore()
        self.sim = Simulator() if current else SeedSimulator()
        self.latency = LatencyModel.ec2(seed=seed)
        self.latency.correlation_window_ms = correlation_window_ms
        bandwidth = (BandwidthModel(default_rate=uplink_rate)
                     if uplink_rate else None)
        self.net = (Network if current else SeedNetwork)(
            self.sim, self.latency, bandwidth=bandwidth)
        self.up = dict.fromkeys(NAMES, True)
        self.trace = []
        #: ``(now, pending, deliveries so far)`` samples taken mid-script.
        self.checkpoints = []
        for i, name in enumerate(NAMES):
            self.net.attach(Endpoint(
                name, SITES[i % len(SITES)],
                self._inbox(name, on_delivery),
                lambda name=name: self.up[name]))

    def _inbox(self, name, on_delivery):
        # The seed delivers ``(src, payload)``; the current fabric adds
        # the stamped authenticator and the wire size.
        def deliver(src, payload, auth=None, size_bytes=0):
            self.trace.append((self.sim.now, src, name, payload))
            if on_delivery is not None:
                on_delivery(self, src, name, payload)

        return deliver

    def send(self, src, dst, payload, size_bytes):
        if self.current:
            self.net.send_authenticated(
                src, dst, payload, size_bytes,
                authenticator=self.policy, keystore=self.keystore)
        else:
            self.net.send(src, dst, payload,
                          size_bytes=size_bytes + self.policy.auth_bytes)

    def broadcast(self, src, dsts, payload, size_bytes):
        if self.current:
            self.net.multicast_authenticated(
                src, dsts, payload, size_bytes,
                authenticator=self.policy, keystore=self.keystore)
        else:
            self.net.broadcast(
                src, dsts, payload,
                size_bytes=size_bytes + self.policy.auth_bytes)

    def observed(self):
        """Drain, then everything the two sides must agree on."""
        self.sim.run(until=HORIZON_MS)
        return (self.trace, self.checkpoints, self.sim.pending,
                self.latency._rng.getstate())


def on_both(script, policy, **options):
    """Play ``script(fabric)`` on the current fabric and on the seed's,
    built with the same ``policy`` and ``options``; what they observed must be
    identical.  Returns the current side for further assertions."""
    current = Fabric(True, policy, **options)
    seed = Fabric(False, policy, **options)
    script(current)
    script(seed)
    observed, expected = current.observed(), seed.observed()
    assert observed[0] == expected[0]  # the trace, in delivery order
    assert observed[1:] == expected[1:]  # checkpoints, pending, RNG state
    assert current.net.stats.messages_delivered == seed.net.delivered
    return current


# ----------------------------------------------------------------------
# Storms: everything sent at one instant
# ----------------------------------------------------------------------

def test_point_to_point_storm_matches_seed(policy):
    # Every endpoint sends to a spread of peers at one instant: 5,000
    # messages queue on nine uplinks and race across six directed links.
    def script(fabric):
        k = len(NAMES)
        for i in range(5_000):
            src = NAMES[i % k]
            dst = NAMES[(i * 5 + 1) % k]
            if src == dst:
                dst = NAMES[(i * 5 + 2) % k]
            fabric.send(src, dst, i, 256)

    current = on_both(script, policy,
                      uplink_rate=DEFAULT_UPLINK_BYTES_PER_MS)
    assert len(current.trace) == 5_000


def test_broadcast_storm_matches_seed(policy):
    # A leader ships one payload to its 8 peers per round, the fan-out of
    # every ordering protocol: one multicast against 8 sequential sends.
    def script(fabric):
        leader, peers = NAMES[0], list(NAMES[1:])
        for round_no in range(600):
            fabric.broadcast(leader, peers, ("batch", round_no), 1024)

    current = on_both(script, policy,
                      uplink_rate=DEFAULT_UPLINK_BYTES_PER_MS)
    assert len(current.trace) == 600 * 8


# ----------------------------------------------------------------------
# Seeded random traces
# ----------------------------------------------------------------------

SIZES = (0, 64, 1024, 4096)

#: Gaps between scripted actions: mostly same-instant or a few ms, so
#: bursts queue on the slow uplink below and crashes land mid-flight.
GAPS_MS = (0.0, 0.0, 0.5, 2.0, 5.0, 20.0, 60.0)


def echo(fabric, src, dst, payload):
    """Some deliveries answer from inside the delivery callback, the way
    a replica replies from its handler: which ones is a pure function of
    the payload, so both fabrics are asked to send the same things as
    long as they deliver the same things."""
    if isinstance(payload, int) and payload % 7 == 0:
        fabric.send(dst, src, ("echo", payload),
                    SIZES[payload % len(SIZES)])


def random_script(seed, actions=3_000):
    """One scripted run as ``(gap_ms, verb, args)`` steps, fixed before
    either fabric exists.  Endpoints go down and come back between
    sends, so senders are crashed at send time and receivers crash (and
    sometimes recover) while messages to them are in flight."""
    rng = random.Random(seed)
    steps = []
    for ident in range(actions):
        gap = rng.choice(GAPS_MS)
        roll = rng.random()
        if roll < 0.12:
            steps.append((gap, "toggle", (rng.choice(NAMES),)))
        elif roll < 0.40:
            count = rng.randrange(1, len(NAMES))
            steps.append((gap, "broadcast",
                          (rng.choice(NAMES), rng.sample(NAMES, count),
                           ident, rng.choice(SIZES))))
        else:
            steps.append((gap, "send",
                          (rng.choice(NAMES), rng.choice(NAMES),
                           ident, rng.choice(SIZES))))
    return steps


def play(fabric, steps):
    for index, (gap, verb, args) in enumerate(steps):
        if gap:
            fabric.sim.run(until=fabric.sim.now + gap)
        if verb == "toggle":
            name, = args
            fabric.up[name] = not fabric.up[name]
        else:
            src, dst, payload, size = args
            getattr(fabric, verb)(src, dst, payload, size)
        if index % 250 == 0:
            fabric.checkpoints.append((fabric.sim.now, fabric.sim.pending,
                                       len(fabric.trace)))


@pytest.mark.parametrize("uplink", (False, True),
                         ids=("no-uplink", "uplink"))
@pytest.mark.parametrize("seed", range(6))
def test_random_trace_matches_seed(seed, uplink, policy):
    steps = random_script(seed)
    current = on_both(
        lambda fabric: play(fabric, steps), policy, seed=seed,
        # 200 B/ms: a 4 kB message holds the uplink for 20 ms, so bursts
        # back up and departure times run ahead of send times.
        uplink_rate=200.0 if uplink else None,
        # Odd seeds draw per message instead of per 250 ms window: every
        # draw taken, skipped or reordered then shifts the RNG state.
        correlation_window_ms=0.0 if seed % 2 else 250.0,
        on_delivery=echo)
    stats = current.net.stats
    assert stats.messages_delivered > 1_500  # the trace actually ran
    # ... with crash drops in it; a drop leaves no line in the trace, so
    # account for them: sent = delivered + crash-dropped.
    assert stats.messages_dropped_crash > 100
    assert stats.messages_sent == (stats.messages_delivered
                                   + stats.messages_dropped_crash)
