"""Component-level tests of the clients' retransmission timeout (RFC 6298
in :class:`SmrClientBase`), on one XPaxos client whose wires are cut: the
test decides when its request completes.  (What the estimate buys when a
primary crashes is ``tests/integration/test_failover_cost.py``.)"""

import pytest

from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.client import XPaxosClient
from tests.conftest import isolate, make_cluster

#: ``CELL_TIMEOUTS``: the cap (and the timeout before the first sample),
#: the minimum (Delta) and the clock-granularity term G.
CAP_MS = 200.0
DELTA_MS = 50.0
G_MS = 2.0


def client_alone():
    """One client of a t = 1 cluster (view 0 = r0, r1), wires cut."""
    runtime = make_cluster(num_clients=1)
    isolate(runtime)
    client = runtime.clients[0]
    assert isinstance(client, XPaxosClient)
    assert (client.config.request_retransmit_ms, client.config.delta_ms,
            client.config.batch_timeout_ms) == (CAP_MS, DELTA_MS, G_MS)
    return runtime, client


def round_trip(runtime, client, rtt_ms):
    """Send a request and complete it ``rtt_ms`` later, un-resent."""
    client.propose(("put", "k", 1))
    runtime.sim.run(until=runtime.sim.now + rtt_ms)
    client.complete(None)


def expires_at(client):
    return client._timer.deadline


def test_before_any_sample_the_timeout_is_the_cap():
    runtime, client = client_alone()
    assert client.srtt is None
    assert client.retransmit_timeout_ms == CAP_MS
    client.propose(("put", "k", 1))
    assert expires_at(client) == CAP_MS


def test_first_sample_then_rfc6298_updates():
    runtime, client = client_alone()
    round_trip(runtime, client, 40.0)
    assert (client.srtt, client.rttvar) == (40.0, 20.0)
    assert client.retransmit_timeout_ms == 40.0 + 4 * 20.0
    round_trip(runtime, client, 56.0)
    # RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R|, then SRTT <- 7/8 SRTT + 1/8 R.
    assert client.rttvar == pytest.approx(0.75 * 20.0 + 0.25 * 16.0)
    assert client.srtt == pytest.approx(0.875 * 40.0 + 0.125 * 56.0)
    assert client.retransmit_timeout_ms == pytest.approx(42.0 + 4 * 19.0)
    sent_at = runtime.sim.now
    client.propose(("put", "k", 2))
    assert expires_at(client) == pytest.approx(sent_at + 118.0)


def test_the_cap_bounds_the_estimate():
    runtime, client = client_alone()
    round_trip(runtime, client, 150.0)      # 150 + 4 x 75 = 450
    assert client.retransmit_timeout_ms == CAP_MS


def test_a_jitter_free_round_trip_still_waits_the_batch_timeout():
    """Without jitter RTTVAR decays towards 0; the timeout stays one batch
    cut above the mean, never at it."""
    runtime, client = client_alone()
    for _ in range(60):
        round_trip(runtime, client, 60.0)
    assert client.srtt == 60.0
    assert 4 * client.rttvar < G_MS
    assert client.retransmit_timeout_ms == 60.0 + G_MS


def test_the_timeout_never_falls_below_delta():
    """RFC 6298's minimum RTO: however short and steady the round trip,
    a client waits one network bound before it re-sends."""
    runtime, client = client_alone()
    round_trip(runtime, client, 8.0)                # 8 + 4 x 4 = 24
    assert client.retransmit_timeout_ms == DELTA_MS
    for _ in range(60):
        round_trip(runtime, client, 4.0)
    assert client.retransmit_timeout_ms == DELTA_MS


def sampled(runtime, client):
    round_trip(runtime, client, 8.0)
    return client.srtt, client.rttvar


def test_karn_a_request_completed_after_its_timer_expired_is_not_sampled():
    runtime, client = client_alone()
    before = sampled(runtime, client)
    client.propose(("put", "k", 2))
    runtime.sim.run(until=runtime.sim.now + 60.0)   # RTO Delta = 50 ms
    assert client.timeouts == 1 and client.resent
    client.complete(None)
    assert (client.srtt, client.rttvar) == before


def test_karn_a_request_resent_on_a_suspect_is_not_sampled():
    runtime, client = client_alone()
    before = sampled(runtime, client)
    client.propose(("put", "k", 2))
    suspect = msg.Suspect.signed(runtime.replica(1).sign, view=0, sender=1)
    client.on_message("r1", suspect)
    assert client.view == 1 and client.resent and client.timeouts == 0
    runtime.sim.run(until=runtime.sim.now + 5.0)
    client.complete(None)
    assert (client.srtt, client.rttvar) == before
    round_trip(runtime, client, 8.0)                # the next one is
    assert client.srtt == before[0] and client.rttvar != before[1]


def test_xpaxos_backs_off_from_the_cap_after_the_first_expiry():
    """Only the first wait is the estimate; then RE-SEND waits the cap,
    and twice the cap from the second expiry on, as before."""
    runtime, client = client_alone()
    sampled(runtime, client)                        # RTO Delta = 50 ms
    start = runtime.sim.now
    client.propose(("put", "k", 2))
    expiries = []
    for _ in range(3):
        expiries.append(expires_at(client) - start)
        runtime.sim.run(until=expires_at(client))
    assert expiries == pytest.approx([DELTA_MS, DELTA_MS + CAP_MS,
                                      DELTA_MS + 3 * CAP_MS])
    assert client.timeouts == 3
