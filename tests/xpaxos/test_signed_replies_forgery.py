"""SIGNED-REPLIES bundles (Algorithm 4) a single faulty replica can build.

The client commits on t + 1 signed replies, so the bundle must prove that
t + 1 *different* replicas signed the *same* outcome and that the result
handed up is the one they signed for.  ``result`` travels outside
the signed payload; only ``digest_of(result) == reply_digest`` ties
it to the signatures.  Each forgery below is assembled by one passive
replica (or around genuine signatures) for a request no replica executed.
"""

import pytest

from repro.common.config import ProtocolName
from repro.crypto.primitives import digest_of
from repro.protocols.xpaxos import messages as msg
from tests.conftest import make_cluster

EVIL = b"attacker-chosen"
GOOD = b"what the replicas would have signed"


def share(runtime, request, signer, sender, result, signed_for=None):
    """A ``SignedReplyShare`` naming ``sender``, genuinely signed by
    ``signer`` over the digest of ``signed_for`` (default: ``result``)."""
    reply_digest = digest_of(result if signed_for is None else signed_for)
    return msg.SignedReplyShare.signed(
        runtime.replica(signer).sign, view=0, seqno=1,
        timestamp=request.timestamp, client=request.client,
        reply_digest=reply_digest, result=result, sender=sender)


def one_signer_many_names(runtime, request, passive):
    return [share(runtime, request, passive, sender, EVIL)
            for sender in range(runtime.config.t + 1)]


def one_share_repeated(runtime, request, passive):
    return [share(runtime, request, passive, passive, EVIL)] \
        * (runtime.config.t + 1)


def right_digest_wrong_result(runtime, request, passive):
    # Genuine signatures of t + 1 distinct replicas over D(GOOD), lifted
    # into shares whose unsigned ``result`` field was swapped.
    return [share(runtime, request, sender, sender, EVIL, signed_for=GOOD)
            for sender in range(runtime.config.t + 1)]


def digests_only(runtime, request, passive):
    return [share(runtime, request, sender, sender, None, signed_for=GOOD)
            for sender in range(runtime.config.t + 1)]


FORGED_BUNDLES = [one_signer_many_names, one_share_repeated,
                  right_digest_wrong_result, digests_only]


def isolated_request(t):
    """A cluster whose client 0 has a request in flight that reaches no
    active replica; returns ``(runtime, client, request, passive id,
    results)``."""
    runtime = make_cluster(ProtocolName.XPAXOS, t=t)
    client = runtime.clients[0]
    results = []
    client.on_result = results.append
    for active in client.groups.group(0):
        runtime.network.partitions.block_pair("c0", f"r{active}")
    request = client.propose(("put", "k", "v"), size_bytes=16)
    return runtime, client, request, client.groups.passive(0)[0], results


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("forge", FORGED_BUNDLES,
                         ids=[f.__name__ for f in FORGED_BUNDLES])
def test_forged_bundle_commits_nothing(forge, t):
    runtime, client, request, passive, results = isolated_request(t)
    bundle = msg.SignedReplies(
        view=0, shares=tuple(forge(runtime, request, passive)))
    runtime.replica(passive).send_authenticated("c0", bundle)
    runtime.sim.run(until=100.0)
    assert results == [] and client.busy
    assert all(r.committed_requests == 0 for r in runtime.replicas)


@pytest.mark.parametrize("t", [1, 2])
def test_the_signed_result_is_taken_past_a_swapped_one(t):
    """Genuine shares, one of them with its result swapped in flight: the
    client hands up the result that hashes to the signed digest."""
    runtime, client, request, passive, results = isolated_request(t)
    shares = [share(runtime, request, sender, sender, GOOD)
              for sender in range(t + 1)]
    swapped = share(runtime, request, 0, 0, EVIL, signed_for=GOOD)
    bundle = msg.SignedReplies(view=0, shares=(swapped, *shares[1:]))
    runtime.replica(passive).send_authenticated("c0", bundle)
    runtime.sim.run(until=100.0)
    assert results == [GOOD] and not client.busy


def test_replica_files_a_share_only_under_its_signer(xpaxos_t1):
    """``_on_signed_reply_share`` keys shares by the ``sender`` they
    name: a passive replica signing as itself but naming the follower
    must not complete the primary's t + 1."""
    client, primary = xpaxos_t1.clients[0], xpaxos_t1.replica(0)
    request = client.propose("op", size_bytes=8)
    xpaxos_t1.sim.run(until=100.0)
    assert not client.busy  # executed and answered
    cached = primary.cached_reply(request.client, request.timestamp)
    assert (cached.view, cached.seqno) == (0, 1)
    forged = share(xpaxos_t1, request, 2, 1, cached.result)
    assert forged.reply_digest == cached.result_digest
    primary.on_message("r2", forged)
    state = primary.retransmitter.waiting[request.rid]
    assert sorted(state.shares) == [0] and not state.done
