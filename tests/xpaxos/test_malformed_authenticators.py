"""A malformed signature or MAC is a failed check, never an exception.

Whatever a Byzantine sender puts where a :class:`Signature` or a
:class:`Mac` belongs -- a bare tuple, a string, a real-looking triple
holding raw bytes instead of a :class:`Digest`, a name that is not a
string -- verification answers False and the receiving replica or client
carries on.  So does a signed value the canonical encoder refuses (a
``set`` as a client's operation or a vote's batch digest): there is
nothing to check the signature against.  Before, ``KeyStore.verify_digest`` unpacked or dereferenced
the value and raised out of ``on_message``, ending the run.
"""

import dataclasses

import pytest

from repro.crypto.authenticators import MAC_VECTOR
from repro.crypto.primitives import (
    Digest,
    KeyStore,
    Mac,
    Signature,
    digest_of,
)
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.signed import verify_signed
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request
from tests.conftest import checkpoint_proof, isolate, make_cluster

KEYSTORE = KeyStore()
DIGEST = digest_of(("body", 1))


class OtherDigest(Digest):
    """A Digest subclass: not the class a signature holds."""


#: Values found where a request's signature belongs.
BAD_SIGNATURES = [
    ("c0",),
    "sig",
    ("c0", b"raw", b"tok"),
    Signature("c0", b"raw", b"tok"),
    Signature("c0", OtherDigest(DIGEST.value), b"tok"),
    Signature(0, DIGEST, b"tok"),
    Signature(["c0"], DIGEST, b"tok"),
]


@pytest.mark.parametrize("signature", BAD_SIGNATURES, ids=repr)
def test_verify_digest_refuses_what_is_not_a_signature(signature):
    assert KEYSTORE.verify_digest(signature, DIGEST) is False


def test_a_signature_subclass_is_refused_and_the_real_one_accepted():
    class Lookalike(Signature):
        __slots__ = ()

    good = KEYSTORE.sign_digest("c0", DIGEST)
    assert KEYSTORE.verify_digest(good, DIGEST)
    assert not KEYSTORE.verify_digest(Lookalike(*good), DIGEST)


@pytest.mark.parametrize("mac", [
    ("r0", "c0"),
    "mac",
    ("r0", "c0", DIGEST, b"tok"),
    Mac("r0", "c0", b"raw", b"tok"),
    Mac("r0", 0, DIGEST, b"tok"),
    Mac(["r0"], "c0", DIGEST, b"tok"),
], ids=repr)
def test_verify_mac_digest_refuses_what_is_not_a_mac(mac):
    assert KEYSTORE.verify_mac_digest(mac, DIGEST) is False
    good = MAC_VECTOR.stamp(KEYSTORE, "r0", "c0", DIGEST)
    assert KEYSTORE.verify_mac_digest(good, DIGEST)


@pytest.mark.parametrize("signature", BAD_SIGNATURES, ids=repr)
def test_the_primary_drops_a_replicate_with_a_malformed_signature(signature):
    runtime = make_cluster(t=1, num_clients=1)
    primary = runtime.replica(0)
    request = Request(op=("put", "k", 1), timestamp=1, client=0,
                      signature=signature)
    assert not primary._verify_request(request)
    primary.on_message("c0", msg.Replicate(request))
    runtime.sim.run(until=500.0)
    assert primary.committed_requests == 0


def test_verify_signed_refuses_a_message_whose_signature_is_not_one():
    runtime = make_cluster(t=1, num_clients=1)
    honest = msg.Suspect.signed(runtime.replica(1).sign, view=0, sender=1)
    assert verify_signed(runtime.replica(0), honest)
    for bad in BAD_SIGNATURES:
        forged = msg.Suspect(view=0, sender=1, sig=bad)
        assert verify_signed(runtime.replica(0), forged) is False


#: Values the canonical encoder refuses to encode.
UNENCODABLE = [{1, 2}, object()]


@pytest.mark.parametrize("op", UNENCODABLE, ids=type)
def test_the_primary_drops_a_replicate_whose_op_cannot_be_encoded(op):
    runtime = make_cluster(t=1, num_clients=1)
    primary = runtime.replica(0)
    request = Request(op=op, timestamp=1, client=0,
                      signature=runtime.keystore.sign_digest("c0", DIGEST))
    assert primary._verify_request(request) is False
    primary.on_message("c0", msg.Replicate(request))
    runtime.sim.run(until=500.0)
    assert primary.committed_requests == 0


@pytest.mark.parametrize("op", UNENCODABLE, ids=type)
def test_the_follower_drops_a_prepare_whose_batch_cannot_be_encoded(op):
    runtime = make_cluster(t=1, num_clients=1)
    primary, follower = runtime.replica(0), runtime.replica(1)
    request = Request(op=op, timestamp=1, client=0,
                      signature=runtime.keystore.sign_digest("c0", DIGEST))
    prepare = msg.FastPrepare.signed(primary.sign, view=0, seqno=1,
                                     batch=Batch((request,)),
                                     batch_digest=DIGEST)
    follower.on_message("r0", prepare)
    assert follower.sn == 0 and 1 not in follower.prepare_log


def unencodable_batch(runtime, op):
    request = Request(op=op, timestamp=1, client=0,
                      signature=runtime.keystore.sign_digest("c0", DIGEST))
    return Batch((request,))


@pytest.mark.parametrize("op", UNENCODABLE, ids=type)
def test_a_new_view_offering_a_batch_that_cannot_be_encoded_is_suspected(
        op):
    """A faulty primary's NEW-VIEW whose signature covers other entries
    than the one it carries, a batch with no digest: no constructor
    takes the digest the primary signed, so the message's own fields
    decide what the signature must cover, verification fails, the view
    is suspected, and nothing escapes ``on_message``."""
    runtime = make_cluster(t=1)
    sent = isolate(runtime)
    primary, follower = runtime.replica(0), runtime.replica(2)
    changer = follower.view_changer  # view 1 = (r0, r2)
    changer._enter_view(1)
    for r in (0, 1):
        vc = runtime.replica(r).view_changer.build_view_change(1)
        changer._on_view_change(f"r{r}", vc)
    vcset = sent.of(msg.VcFinal)[0][1].vcset
    changer._on_vc_final("r0", msg.VcFinal.signed(
        primary.sign, new_view=1, sender=0, vcset=vcset,
        vcset_digest=digest_of(vcset)))
    entry = PrepareEntry(1, 1, unencodable_batch(runtime, op),
                         primary.sign(("prepare", 1)))
    sig = primary.sign(msg.NewView.payload_of(new_view=1, entries=()))
    with pytest.raises(TypeError):
        msg.NewView(1, (entry,), None, sig, payload_digest=sig.digest)
    crafted = msg.NewView(1, (entry,), None, sig)
    assert not verify_signed(follower, crafted)
    follower.on_message("r0", crafted)
    assert follower.view_changes_completed == 0
    assert {m.view for _, m in sent.of(msg.Suspect)} == {1}
    assert follower.view == 2


@pytest.mark.parametrize("op", UNENCODABLE, ids=type)
def test_a_commit_entry_whose_batch_cannot_be_encoded_has_no_valid_proof(
        op):
    runtime = make_cluster(t=2, use_fault_detection=True)
    replica = runtime.replica(1)
    entry = CommitEntry(1, 0, unencodable_batch(runtime, op),
                        (runtime.replica(0).sign(("prepare", 1)),))
    assert replica.view_changer.detector._commit_proof_valid(entry) is False


@pytest.mark.parametrize("batch_digest", UNENCODABLE, ids=type)
def test_a_commit_vote_whose_covered_field_cannot_be_encoded_is_refused(
        batch_digest):
    runtime = make_cluster(t=2, num_clients=1)
    primary = runtime.replica(0)
    sender = primary.groups.followers(0)[0]
    sig = runtime.replica(sender).sign(("commit", DIGEST, 1, 0, sender))
    vote = msg.CommitVote(view=0, seqno=1, batch_digest=batch_digest,
                          sender=sender, sig=sig)
    assert verify_signed(primary, vote) is False
    primary.on_message(f"r{sender}", vote)
    assert 1 not in primary.commit_log


def client_in_flight():
    """A t = 1 client with one request in flight, wires cut."""
    runtime = make_cluster(t=1, num_clients=1)
    isolate(runtime)
    client = runtime.clients[0]
    client.propose(("put", "k", 1))
    return runtime, client


def reply_to(client, follower_commit):
    return msg.ReplyMsg(replica=0, view=0, seqno=1,
                        timestamp=client.request.timestamp,
                        client=client.client_id, result=b"",
                        result_digest=digest_of(b""),
                        follower_commit=follower_commit)


@pytest.mark.parametrize("follower_commit", [
    "m1", 7, ("commit1", 0, 1), DIGEST,
], ids=repr)
def test_the_t1_client_ignores_a_reply_without_a_fast_commit(
        follower_commit):
    runtime, client = client_in_flight()
    client.on_message("r0", reply_to(client, follower_commit))
    assert client.busy and not client.completions


@pytest.mark.parametrize("m1", BAD_SIGNATURES, ids=repr)
def test_the_t1_client_ignores_a_fast_commit_whose_m1_is_malformed(m1):
    runtime, client = client_in_flight()
    fast = msg.FastCommit(view=0, seqno=1, batch_digest=DIGEST,
                          reply_digest=digest_of((b"",)), m1=m1)
    client.on_message("r0", reply_to(client, fast))
    assert client.busy and not client.completions


def test_the_t1_client_still_commits_on_an_honest_reply():
    runtime, client = client_in_flight()
    fast = msg.FastCommit.signed(runtime.replica(1).sign, view=0, seqno=1,
                                 batch_digest=DIGEST,
                                 reply_digest=digest_of((b"",)))
    client.on_message("r0", reply_to(client, fast))
    assert not client.busy and len(client.completions) == 1


@pytest.mark.parametrize("sig", BAD_SIGNATURES, ids=repr)
def test_a_passive_replica_drops_a_checkpoint_proof_with_a_malformed_sig(
        sig):
    runtime = make_cluster(t=1, num_clients=1)
    passive = runtime.replica(2)
    proof = checkpoint_proof(runtime.keystore, seqno=64, view=0,
                             signers=(0, 1))
    assert passive.checkpointer.proof_valid(proof)
    forged = dataclasses.replace(proof, sigs=(proof.sigs[0], sig))
    assert not passive.checkpointer.proof_valid(forged)
    passive.on_message("r0", msg.LazyChk(forged))
    assert passive.stable_checkpoint is None
