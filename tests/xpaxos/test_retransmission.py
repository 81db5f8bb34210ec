"""Tests for the request-retransmission protocol (Algorithm 4)."""

from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.signed import verify_signed


class TestClientTimeout:
    def test_resend_broadcasts_to_actives(self, xpaxos_t1):
        client = xpaxos_t1.clients[0]
        # Black-hole the client's first send by partitioning it from the
        # primary; the timer should fire and broadcast RE-SEND.
        xpaxos_t1.network.partitions.block_pair("c0", "r0")
        client.propose("op", size_bytes=16)
        xpaxos_t1.sim.run(until=250.0)  # past request_retransmit_ms=200
        assert client.timeouts >= 1

    def test_request_commits_via_resend_path(self, xpaxos_t1):
        client = xpaxos_t1.clients[0]
        results = []
        client.on_result = results.append
        xpaxos_t1.network.partitions.block_pair("c0", "r0")
        client.propose("op", size_bytes=16)
        # RE-SEND goes to r1 too, which forwards to the primary r0;
        # the signed-replies bundle then reaches the client via r1.
        xpaxos_t1.sim.run(until=3_000.0)
        assert results  # committed despite the client-primary partition

    def test_signed_replies_bundle_carries_t_plus_1_shares(self, xpaxos_t1):
        client = xpaxos_t1.clients[0]
        bundles = []
        original = client.on_message

        def spy(src, payload):
            if isinstance(payload, msg.SignedReplies):
                bundles.append(payload)
            original(src, payload)

        client.on_message = spy
        xpaxos_t1.network.partitions.block_pair("c0", "r0")
        client.propose("op", size_bytes=16)
        xpaxos_t1.sim.run(until=3_000.0)
        assert bundles
        assert len(bundles[0].shares) == xpaxos_t1.config.t + 1

    def test_share_signatures_verify(self, xpaxos_t1):
        client = xpaxos_t1.clients[0]
        bundles = []
        original = client.on_message

        def spy(src, payload):
            if isinstance(payload, msg.SignedReplies):
                bundles.append(payload)
            original(src, payload)

        client.on_message = spy
        xpaxos_t1.network.partitions.block_pair("c0", "r0")
        client.propose("op", size_bytes=16)
        xpaxos_t1.sim.run(until=3_000.0)
        for share in bundles[0].shares:
            assert verify_signed(client, share)


class TestReplicaSideTimeout:
    def test_stalled_request_triggers_suspicion(self, xpaxos_t1):
        """If the request cannot commit (follower partitioned from
        primary), the active replicas must suspect the view."""
        client = xpaxos_t1.clients[0]
        xpaxos_t1.network.partitions.block_pair("r0", "r1")
        client.propose("op", size_bytes=16)
        xpaxos_t1.sim.run(until=8_000.0)
        # The view moved on (r0-r1 cannot be the synchronous group).
        views = {r.view for r in xpaxos_t1.replicas}
        assert max(views) >= 1

    def test_client_follows_suspect_to_new_view(self, xpaxos_t1):
        client = xpaxos_t1.clients[0]
        results = []
        client.on_result = results.append
        xpaxos_t1.network.partitions.block_pair("r0", "r1")
        client.propose("op", size_bytes=16)
        xpaxos_t1.sim.run(until=10_000.0)
        assert results  # committed in a later view
        assert client.view >= 1


class TestDeduplication:
    def test_resend_of_committed_request_returns_cached_reply(self,
                                                              xpaxos_t1):
        client = xpaxos_t1.clients[0]
        results = []
        client.on_result = results.append
        client.propose("op", size_bytes=16)
        xpaxos_t1.sim.run(until=500.0)
        assert len(results) == 1
        # Simulate a lost reply: client re-sends the same request.
        request = client.completions[0][2]
        for replica in (0, 1):
            from repro.smr.messages import Request

            # Rebuild the identical request object for re-sending.
            pass
        # The replicas' reply cache must not re-execute the op.
        primary = xpaxos_t1.replica(0)
        before = primary.committed_requests
        from repro.protocols.xpaxos import messages as m2

        # Re-deliver the original REPLICATE.
        body = ("op", 1, 0)
        sig = xpaxos_t1.keystore.sign("c0", body)
        from repro.smr.messages import Request

        duplicate = Request(op="op", timestamp=1, client=0, size_bytes=16,
                            signature=sig)
        primary.on_message("c0", m2.Replicate(duplicate))
        xpaxos_t1.sim.run(until=1_000.0)
        assert primary.committed_requests == before
