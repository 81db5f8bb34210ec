"""Byzantine behaviour in the common case: unforgeability holds the line.

The paper's adversary "cannot break cryptographic primitives" (Section 2);
these tests exercise the concrete consequences: forged commits are
rejected, equivocation cannot assemble valid proofs, and replayed
signatures from old views/slots do not advance state.
"""

from repro.crypto.primitives import digest_of
from repro.protocols.xpaxos import messages as msg
from repro.smr.messages import Batch, Request
from tests.conftest import channel_mac, make_cluster, run_workload


def make_signed_request(runtime, client_id=0, timestamp=1, op="x"):
    body = (op, timestamp, client_id)
    sig = runtime.keystore.sign(f"c{client_id}", body)
    return Request(op=op, timestamp=timestamp, client=client_id,
                   size_bytes=8, signature=sig)


class TestForgedMessages:
    def test_forged_fast_prepare_rejected(self, xpaxos_t1):
        """A Byzantine passive replica impersonating the primary cannot
        make the follower execute anything."""
        follower = xpaxos_t1.replica(1)
        request = make_signed_request(xpaxos_t1)
        batch = Batch((request,))
        batch_digest = digest_of(tuple(r.rid for r in batch))
        forged_m0 = xpaxos_t1.keystore.forge_attempt(
            "r2", "r0", msg.FastPrepare.payload_of(
                batch_digest=batch_digest, seqno=1, view=0))
        fake = msg.FastPrepare(0, 1, batch, batch_digest, forged_m0)
        # Delivered as if from the true primary's address is impossible in
        # our network (no spoofing), so the adversary can at best deliver
        # from itself -- rejected by the source check...
        follower.on_message("r2", fake)
        assert follower.committed_requests == 0
        # ...and even from the right source, the signature fails.
        follower.on_message("r0", fake)
        xpaxos_t1.sim.run(until=200.0)
        assert follower.committed_requests == 0

    def test_forged_fast_commit_rejected(self, xpaxos_t1):
        """A forged m1 cannot complete a slot at the primary."""
        primary = xpaxos_t1.replica(0)
        client = xpaxos_t1.clients[0]
        client.propose("op", size_bytes=8)
        xpaxos_t1.sim.run(until=5.0)  # primary prepared, follower not yet
        assert primary.prepare_log.end >= 1
        entry = primary.prepare_log.get(primary.prepare_log.end)
        batch_digest = digest_of(tuple(r.rid for r in entry.batch))
        forged_m1 = xpaxos_t1.keystore.forge_attempt(
            "r2", "r1", msg.FastCommit.payload_of(
                batch_digest=batch_digest, seqno=entry.seqno, view=0,
                reply_digest=digest_of((b"",))))
        before = primary.committed_requests
        fake = msg.FastCommit(0, entry.seqno, batch_digest,
                              digest_of((b"",)), forged_m1)
        try:
            primary.on_message("r1", fake)
        except Exception:
            pass
        assert primary.committed_requests == before

    def test_forged_view_change_signature_detected(self, xpaxos_t1):
        """View-change messages carry signatures; content forged under a
        wrong key neither enters the VCSet as that sender nor moves the
        receiver out of its view."""
        replica = xpaxos_t1.replica(0)
        fields = dict(new_view=1, sender=1, commit_entries=(),
                      checkpoint=None, prepare_entries=None, prepare_view=0,
                      final_proof=None)
        forged = xpaxos_t1.keystore.forge_attempt(
            "r2", "r1", msg.ViewChange.payload_of(**fields))
        replica.on_message("r2", msg.ViewChange(sig=forged, **fields))
        assert replica.view == 0 and not replica.in_view_change
        assert replica.view_changer._state is None


class TestReplayAttacks:
    def test_replayed_commit_from_old_slot_ignored(self, xpaxos_t1):
        """Replaying a valid old FastCommit cannot re-commit or corrupt a
        newer slot (sequence and digest binding)."""
        run_workload(xpaxos_t1, duration_ms=500.0)
        # Quiesce: let all in-flight traffic finish before measuring.
        xpaxos_t1.sim.run(until=xpaxos_t1.sim.now + 1_000.0)
        primary = xpaxos_t1.replica(0)
        follower = xpaxos_t1.replica(1)
        old_entry = follower.commit_log.get(follower.commit_log.end)
        assert old_entry is not None
        m0, m1 = old_entry.proof
        batch_digest = msg.batch_digest_of(old_entry.batch)
        replay = msg.FastCommit(0, old_entry.seqno + 100, batch_digest,
                                digest_of((b"",)), m1)
        before_ex = primary.ex
        primary.on_message("r1", replay)
        xpaxos_t1.sim.run(until=xpaxos_t1.sim.now + 100.0)
        assert primary.ex == before_ex

    def test_duplicate_client_request_single_execution(self, xpaxos_t1):
        """Replaying a signed client request yields one execution and a
        cached reply (at-most-once semantics)."""
        primary = xpaxos_t1.replica(0)
        request = make_signed_request(xpaxos_t1)
        for _ in range(5):
            primary.on_message("c0", msg.Replicate(request))
        xpaxos_t1.sim.run(until=500.0)
        executions = sum(rids.count(request.rid)
                         for _, rids in primary.execution_trace)
        assert executions == 1


class TestEquivocationLimits:
    def test_two_conflicting_batches_cannot_both_gather_proofs(self):
        """At t >= 2, a Byzantine primary sending different batches to
        different followers cannot commit either unless ALL followers vote
        for the same digest -- so no two conflicting slots both commit."""
        runtime = make_cluster(t=2, num_clients=1)
        primary = runtime.replica(0)
        follower_a = runtime.replica(1)
        follower_b = runtime.replica(2)

        request_a = make_signed_request(runtime, client_id=0, op="a")
        request_b = make_signed_request(runtime, client_id=0, op="b",
                                        timestamp=1)
        batch_a = Batch((request_a,))
        batch_b = Batch((request_b,))
        digest_a = digest_of(tuple(r.rid for r in batch_a))
        digest_b = digest_of(tuple(r.rid for r in batch_b))

        # The Byzantine primary signs BOTH (it owns its key).
        sig_a, sig_b = (
            runtime.keystore.sign("r0", msg.Prepare.payload_of(
                batch_digest=digest, seqno=1, view=0))
            for digest in (digest_a, digest_b))
        follower_a.on_message("r0", msg.Prepare(0, 1, batch_a, digest_a,
                                                sig_a))
        follower_b.on_message("r0", msg.Prepare(0, 1, batch_b, digest_b,
                                                sig_b))
        runtime.sim.run(until=1_000.0)

        # Neither follower can commit: each needs the OTHER follower's
        # commit vote on its own digest, which never comes.
        assert follower_a.committed_requests == 0
        assert follower_b.committed_requests == 0

    def test_client_rejects_mismatched_reply_digest(self, xpaxos_t1):
        """A faulty primary returning a corrupted result cannot convince
        the client: the embedded m1 covers the follower's reply digest.

        The primary owns its channel key, so it can stamp a perfectly
        valid transport MAC on the corrupted reply -- the content checks
        are what must hold the line."""
        client = xpaxos_t1.clients[0]
        results = []
        client.on_result = results.append
        client.propose("op", size_bytes=8)
        xpaxos_t1.sim.run(until=300.0)
        assert len(results) == 1  # sanity: the honest flow works

        # Second request in flight; answer it with a corrupted result
        # (digest kept from the honest reply) under a valid channel MAC.
        primary = xpaxos_t1.replica(0)
        cached = primary._last_reply[0]
        request = client.propose("op2", size_bytes=8)
        tampered = msg.ReplyMsg(
            replica=0, view=cached.view, seqno=cached.seqno + 1,
            timestamp=request.timestamp, client=0,
            result=b"corrupted", result_digest=cached.result_digest,
            follower_commit=cached.follower_commit)
        mac = channel_mac(xpaxos_t1.keystore, "r0", "c0", tampered)
        count_before = len(results)
        client._on_deliver_auth("r0", tampered, mac, 64)
        assert len(results) == count_before  # not accepted


class TestOutOfRangeViews:
    def test_client_drops_a_reply_naming_a_negative_view(self):
        """An active replica may stamp a valid channel MAC on a reply for
        view -1: the client drops it at intake (it used to raise
        ``ValueError`` from the group lookup of the t >= 2 commit rule)
        and still commits on the honest replies."""
        for t in (1, 2):
            runtime = make_cluster(t=t, num_clients=1)
            client = runtime.clients[0]
            results = []
            client.on_result = results.append
            request = client.propose("op", size_bytes=8)
            forged = msg.ReplyMsg(
                replica=1, view=-1, seqno=1, timestamp=request.timestamp,
                client=0, result=None, result_digest=digest_of(b""))
            mac = channel_mac(runtime.keystore, "r1", "c0", forged)
            client._on_deliver_auth("r1", forged, mac, 64)
            assert client.view == 0 and results == []
            runtime.sim.run(until=300.0)
            assert len(results) == 1, t
