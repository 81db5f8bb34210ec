"""Digest-memo correctness: kept encodings and carried digests must be
invisible.

Obligations (docs/profiling.md):

* digests are byte-identical to the seed encoder's output for every
  wire-message shape (the memo may only change *when* encoding happens,
  never *what* is hashed; ``test_canonical_oracle.py`` is the property
  version of this);
* a carried digest (``Request.body_digest``, ``payload_digest`` of the
  signed XPaxos messages) is only ever derived from the instance it sits
  on -- never from an attached signature, never from an equal-looking
  sibling;
* MAC vectors are unchanged whether a message leaves in a fan-out or in
  ``n`` sequential sends -- the authenticator depends only on (sender,
  receiver, body digest), never on how the send was issued;
* the memo is never invalidated, which is exactly why mutating a frozen
  message after it has been digested is forbidden (lint rule A002): the
  stale digest this test demonstrates is the bug the rule prevents.
"""

import dataclasses

from repro.common.config import ProtocolName
from repro.crypto.authenticators import (
    MAC_VECTOR,
    MacVectorAuthenticator,
    registered_classes,
)
from repro.crypto.primitives import (
    Digest,
    KeyStore,
    digest_cache_stats,
    digest_of,
    reset_digest_cache_stats,
)
from repro.harness.seed_reference import seed_digest_of
from repro.net.latency import LatencyModel
from repro.net.network import Endpoint, Network
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.messages import FastCommit, PreChk, ReplyMsg
from repro.sim.core import Simulator
from repro.smr.messages import Batch, Request
from tests.conftest import make_cluster


def make_batch(i=0, n=4):
    return Batch(tuple(
        Request(op=("put", f"key-{i}-{j}", b"v" * 24), timestamp=i * 8 + j,
                client=j, size_bytes=64)
        for j in range(n)))


class TestByteIdentity:
    """digest_of == the seed encoder, byte for byte, shape by shape."""

    def test_wire_messages_match_seed_encoder(self):
        keystore = KeyStore()
        sig = keystore.sign("r0", ("prepare", 1, 2))
        mac = keystore.mac("r0", "c1", ("reply", 3))
        samples = [
            Request(op=("get", "k"), timestamp=7, client=2, size_bytes=32),
            Request(op=("put", "k", b"v"), timestamp=8, client=2,
                    signature=sig),
            make_batch(),
            ReplyMsg(replica=0, view=1, seqno=9, timestamp=4, client=3,
                     result=None, result_digest=digest_of(("r", 9))),
            PreChk(seqno=40, view=1, state_digest=b"\x01" * 32, sender=2),
            sig,
            mac,
            ("tuple", 1, 2.5, None, True, b"bytes"),
            {"b": 1, "a": (2, 3)},
            ["list", ("nested", Digest(b"\x02" * 32))],
        ]
        for obj in samples:
            assert digest_of(obj).value == seed_digest_of(obj).value, obj

    def test_repeated_digests_stay_identical(self):
        batch = make_batch(1)
        first = digest_of(batch)
        for _ in range(3):
            assert digest_of(batch).value == first.value
        # A fresh, equal-valued instance digests to the same bytes.
        assert digest_of(make_batch(1)).value == first.value

    def test_every_registered_wire_class_is_frozen(self):
        # The cache's immutability contract: every class that crosses
        # the wire is a frozen dataclass (and therefore cacheable).
        # The registry is process-global and other test modules register
        # ad-hoc fixture classes, so scope the sweep to the package.
        for cls in registered_classes():
            if not cls.__module__.startswith("repro."):
                continue
            assert dataclasses.is_dataclass(cls), cls
            assert cls.__dataclass_params__.frozen, cls


def call_kinds(fn):
    """``digest_cache_stats()`` deltas over one call of ``fn``."""
    before = digest_cache_stats()
    fn()
    after = digest_cache_stats()
    return {key: after[key] - before[key] for key in after}


class TestMemoization:
    """The one memo: frozen dataclass instances keep their encoding."""

    def test_nested_message_is_encoded_once_across_enclosing_digests(self):
        # The ledger's shape: one FastCommit embedded in the reply to
        # every client of its batch.
        keystore = KeyStore()
        fast = FastCommit.signed(
            lambda payload: keystore.sign("r1", payload), view=0, seqno=3,
            batch_digest=digest_of(("batch", 3)),
            reply_digest=digest_of(("replies", 3)))
        replies = [ReplyMsg(replica=0, view=0, seqno=3, timestamp=9,
                            client=c, result=b"", result_digest=digest_of(b""),
                            follower_commit=fast) for c in range(4)]
        reset_digest_cache_stats()
        digests = [digest_of(reply) for reply in replies]
        assert digest_cache_stats() == {"hits": 3, "stores": 1,
                                        "uncached": 0}
        for reply, digest in zip(replies, digests):
            assert digest.value == seed_digest_of(reply).value

    def test_redigesting_a_message_hits(self):
        batch = make_batch(2)
        first = digest_of(batch)
        assert call_kinds(lambda: digest_of(batch)) == {
            "hits": 1, "stores": 0, "uncached": 0}
        assert digest_of(batch).value == first.value

    def test_plain_payloads_are_uncached(self):
        body = ("batch", b"x" * 64, Digest(b"\x07" * 32))
        for payload in (body, b"application result"):
            assert call_kinds(lambda: digest_of(payload)) == {
                "hits": 0, "stores": 0, "uncached": 1}
            assert digest_of(payload).value == seed_digest_of(payload).value

    def test_counters_sum_to_digest_of_calls(self):
        reset_digest_cache_stats()
        batch = make_batch(5)
        for payload in (batch, batch, (1, 2), b"r", [batch], None):
            digest_of(payload)
        assert sum(digest_cache_stats().values()) == 6

    def test_mutable_dataclasses_are_never_memoized(self):
        @dataclasses.dataclass
        class Scratch:
            value: int

        scratch = Scratch(1)
        before = digest_of(scratch)
        scratch.value = 2
        assert digest_of(scratch).value != before.value
        assert digest_of(scratch).value == seed_digest_of(scratch).value


class TestCarriedDigests:
    """Digests that travel with their object are derived from that
    object's own fields and from nothing else."""

    def test_honest_request_carries_the_signers_digest(self):
        keystore = KeyStore()
        reset_digest_cache_stats()
        request = Request.signed(("put", "k", b"v"), 1, 0, 64,
                                 lambda body: keystore.sign("c0", body))
        assert request.body_digest() is request.signature.digest
        assert request.body_digest().value == \
            seed_digest_of(request.body()).value
        # One encode in total: the signer's.
        assert sum(digest_cache_stats().values()) == 1

    def test_mismatched_signature_never_seeds_the_body_digest(self):
        keystore = KeyStore()
        # A perfectly valid signature by c0 -- over a *different* body.
        stolen = keystore.sign("c0", (("put", "k", b"old"), 1, 0))
        request = Request(op=("put", "k", b"EVIL"), timestamp=1, client=0,
                          signature=stolen)
        assert request.body_digest() == digest_of(request.body())
        assert request.body_digest() != stolen.digest
        assert not keystore.verify_digest(stolen, request.body_digest())

    def test_replica_rejects_request_with_mismatched_signature(self):
        runtime = make_cluster(ProtocolName.XPAXOS, t=1)
        primary = runtime.replica(0)
        stolen = runtime.keystore.sign("c0", (("put", "k", b"old"), 1, 0))
        forged = runtime.keystore.forge_attempt(
            "c9", "c0", (("put", "k", b"EVIL"), 1, 0))
        for signature in (stolen, forged):
            request = Request(op=("put", "k", b"EVIL"), timestamp=1,
                              client=0, signature=signature)
            assert not primary._verify_request(request)
            primary.on_message("c0", msg.Replicate(request))
        runtime.sim.run(until=500.0)
        assert primary.committed_requests == 0

    def test_payload_digest_memo_is_per_instance(self):
        keystore = KeyStore()
        batch_digest = digest_of(("batch", 1))
        honest = FastCommit.signed(
            lambda payload: keystore.sign("r1", payload), view=0, seqno=1,
            batch_digest=batch_digest,
            reply_digest=digest_of(("replies", "a")))
        assert honest.payload_digest() is honest.m1.digest
        # Same m1 replayed around a different reply digest: the new
        # instance starts unseeded and hashes its own fields.
        replayed = FastCommit(0, 1, batch_digest, digest_of(("replies", "b")),
                              honest.m1)
        assert replayed.payload_digest() != honest.payload_digest()
        assert replayed.payload_digest() == digest_of(
            ("commit1", batch_digest, 1, 0, replayed.reply_digest))
        assert not keystore.verify_digest(replayed.m1,
                                          replayed.payload_digest())
        # An equal-by-value twin shares the value, not the memo.
        twin = FastCommit(0, 1, batch_digest, honest.reply_digest, honest.m1)
        assert twin == honest
        assert "_memo_payload_digest" not in vars(twin)
        assert twin.payload_digest() == honest.payload_digest()
        assert twin.payload_digest() is not honest.payload_digest()

    def test_payload_digests_match_their_declared_payloads(self):
        keystore = KeyStore()
        sig = keystore.sign("r0", ("any", 0))
        batch = make_batch(6)
        digest = batch.bodies_digest()
        cases = [
            (msg.Prepare(2, 7, batch, digest, sig),
             ("prepare", digest, 7, 2)),
            (msg.CommitVote(2, 7, digest, 1, sig),
             ("commit", digest, 7, 2, 1)),
            (msg.FastPrepare(2, 7, batch, digest, sig),
             ("commit0", digest, 7, 2)),
            (FastCommit(2, 7, digest, digest, sig),
             ("commit1", digest, 7, 2, digest)),
        ]
        for message, payload in cases:
            assert message.payload_digest().value == \
                seed_digest_of(payload).value, type(message)
            assert message.payload_digest() is message.payload_digest()


def _auth_net(sites):
    """A network with one auth-recording sink per (name, site) pair."""
    sim = Simulator()
    latency = LatencyModel.uniform(
        tuple(sorted(set(site for _, site in sites))) + ("S",),
        one_way_ms=5.0, jitter=0.0, seed=7)
    net = Network(sim, latency)
    inboxes = {}
    for name, site in sites:
        inbox = inboxes[name] = []
        net.attach(Endpoint(
            name, site,
            (lambda inbox: lambda src, body, auth, size:
             inbox.append(auth))(inbox),
            lambda: True))
    net.attach(Endpoint("s", "S", lambda src, body, auth, size: None,
                        lambda: True))
    return sim, net, inboxes


class TestMacVectorsBothVerbs:
    """The same wire message sent as one fan-out and as ``n`` sequential
    sends must carry byte-identical MAC vectors."""

    def run_fanout(self, sequential):
        sim, net, inboxes = _auth_net(
            [("b", "Y"), ("c", "Y"), ("d", "Z")])
        keystore = KeyStore()
        body = PreChk(seqno=11, view=0, state_digest=b"\x03" * 32, sender=0)
        if sequential:
            for name in sorted(inboxes):
                net.send_authenticated("s", name, body, size_bytes=44,
                                       authenticator=MAC_VECTOR,
                                       keystore=keystore)
        else:
            net.multicast_authenticated("s", sorted(inboxes), body,
                                        size_bytes=44,
                                        authenticator=MAC_VECTOR,
                                        keystore=keystore)
        sim.run()
        macs = {}
        for name, inbox in inboxes.items():
            (auth,) = inbox
            assert keystore.verify_mac(auth, body)
            macs[name] = tuple(auth)  # full layout, token bytes included
        return macs

    def test_fanout_and_sequential_macs_are_byte_identical(self):
        # One body digest shared across the fan-out, or one per send:
        # the MAC vector must not notice.
        assert self.run_fanout(False) == self.run_fanout(True)

    def test_transport_stamp_matches_keystore_mac_digest(self):
        # The inlined fan-out stamp and the KeyStore API derive the
        # same token ("keep in sync" contract in authenticators.py).
        keystore = KeyStore()
        context = digest_of(("ctx", 1))
        stamped = MacVectorAuthenticator().stamp(keystore, "a", "b", context)
        assert tuple(stamped) == tuple(keystore.mac_digest("a", "b", context))


class TestMutationAfterDigestGuard:
    """Why A002 exists: a mutated message keeps serving its stale digest."""

    def test_mutation_after_digest_serves_stale_digest(self):
        request = Request(op=("put", "k", b"old"), timestamp=1, client=1)
        before = digest_of(request)
        body_before = request.body_digest()
        # The forbidden write A002 flags in real code -- performed here
        # deliberately to pin down the failure mode it prevents.
        object.__setattr__(request, "timestamp", 999)  # repro: lint-ok[A002]
        # Stale: neither the kept encoding nor a carried digest revalidates.
        assert digest_of(request).value == before.value
        assert request.body_digest() is body_before
        fresh = Request(op=("put", "k", b"old"), timestamp=999, client=1)
        assert digest_of(fresh).value != before.value
        assert fresh.body_digest() != body_before

    def test_unmutated_messages_never_go_stale(self):
        batch = make_batch(3)
        assert digest_of(batch).value == seed_digest_of(batch).value
