"""A request whose size no client sends is dropped at the replica's intake.

A request's ``size_bytes`` is its modelled payload: it sets the batch's
size, hence the primary's digest CPU at the batch cut and every
batch-carrying message's size.  It is not part of the signed body, and
a request arrives from outside the replicas.  A negative size used to
end the whole run with ``ValueError: negative CPU cost`` at the
primary's batch cut; a NaN left the replica's ``cpu.busy_us`` at NaN.
Every protocol's request intake (the baselines' ``_on_client_request``,
XPaxos's REPLICATE and RE-SEND) drops a request whose size is not a
non-negative ``int``: the run goes on, nothing is charged for it,
nothing executes it, and an honest client still commits.
"""

import math
from functools import partial

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.crypto.authenticators import POLICIES
from repro.crypto.costs import CostModel
from repro.protocols.base import ClientRequestMsg
from repro.protocols.registry import build_cluster
from repro.protocols.xpaxos import messages as xmsg
from repro.smr.messages import Request
from tests.conftest import FAST_TIMEOUTS, run_workload

SIZES = [-5, float("nan"), True, 10.5]
#: A timestamp no honest request of the sending client reaches.
TIMESTAMP = 10 ** 6


def inject(runtime, protocol, envelope_of, size):
    """Send one request of ``size`` bytes from client 1 straight onto the
    wire, signed as that client where the protocol signs, to every
    replica."""
    keystore = runtime.keystore
    if protocol is ProtocolName.XPAXOS:
        request = Request.signed("op", TIMESTAMP, 1, size,
                                 partial(keystore.sign_digest, "c1"))
    else:
        request = Request("op", TIMESTAMP, 1, size)
    envelope = envelope_of(request)
    runtime.network.send(
        "c1", [(replica.name, envelope, 64) for replica in runtime.replicas],
        authenticator=POLICIES[type(envelope)], keystore=keystore)


@pytest.mark.parametrize("size", SIZES, ids=repr)
@pytest.mark.parametrize("protocol", list(ProtocolName),
                         ids=lambda p: p.value)
def test_a_request_of_no_sendable_size_is_dropped(protocol, size):
    config = ClusterConfig(t=1, protocol=protocol, **FAST_TIMEOUTS)
    runtime = build_cluster(config, num_clients=2, cost_model=CostModel(),
                            seed=42)
    envelopes = [ClientRequestMsg]
    if protocol is ProtocolName.XPAXOS:
        envelopes = [xmsg.Replicate, xmsg.ReSend]
    for envelope_of in envelopes:
        inject(runtime, protocol, envelope_of, size)
    run_workload(runtime, duration_ms=400.0, warmup_ms=0.0)
    for replica in runtime.replicas:
        assert math.isfinite(replica.cpu.busy_us)
        assert all((1, TIMESTAMP) not in rids
                   for _, rids in replica.execution_trace)
    assert len(runtime.clients[0].completions) > 0


@pytest.mark.parametrize("size", SIZES + [64.0], ids=repr)
def test_a_workload_refuses_a_request_size_the_replicas_drop(size):
    with pytest.raises(ConfigurationError, match="request_size"):
        WorkloadConfig(request_size=size)
