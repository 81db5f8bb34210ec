"""Tests for the XPaxos common case (Algorithms 1 and 2)."""

from repro.faults.checker import SafetyChecker
from repro.protocols.xpaxos import messages as msg
from repro.smr.messages import Batch, Request
from tests.conftest import isolate, make_cluster, run_workload


class TestFastPathT1:
    def test_requests_commit(self, xpaxos_t1):
        driver = run_workload(xpaxos_t1)
        assert driver.throughput.total > 100

    def test_all_replicas_execute_same_order(self, xpaxos_t1):
        run_workload(xpaxos_t1)
        checker = SafetyChecker(xpaxos_t1)
        assert checker.violations() == []

    def test_passive_replica_catches_up_via_lazy_replication(self,
                                                             xpaxos_t1):
        run_workload(xpaxos_t1)
        passive = xpaxos_t1.replica(2)  # view 0: passive is r2
        active = xpaxos_t1.replica(0)
        assert passive.committed_requests > 0.9 * active.committed_requests

    def test_client_latency_is_two_wan_hops_plus_round_trip(self, xpaxos_t1):
        """t = 1 pattern: client->primary, primary<->follower, ->client.
        With 1 ms one-way uniform latency and sub-ms batching that is
        ~4-6 ms."""
        driver = run_workload(xpaxos_t1)
        assert 3.0 <= driver.mean_latency_ms() <= 20.0

    def test_no_client_timeouts_in_fault_free_run(self, xpaxos_t1):
        run_workload(xpaxos_t1)
        assert sum(c.timeouts for c in xpaxos_t1.clients) == 0

    def test_view_never_changes_fault_free(self, xpaxos_t1):
        run_workload(xpaxos_t1)
        assert all(r.view == 0 for r in xpaxos_t1.replicas)

    def test_commit_logs_hold_proofs(self, xpaxos_t1):
        run_workload(xpaxos_t1, duration_ms=500.0)
        follower = xpaxos_t1.replica(1)
        for _, entry in follower.commit_log.items():
            assert len(entry.proof) == 2  # m0 + m1

    def test_commit_log_signatures_verify(self, xpaxos_t1):
        run_workload(xpaxos_t1, duration_ms=500.0)
        keystore = xpaxos_t1.keystore
        primary = xpaxos_t1.replica(0)
        for _, entry in primary.commit_log.items():
            for sig in entry.proof:
                assert keystore.verify_digest(sig, sig.digest)


class TestGeneralCaseT2:
    def test_requests_commit(self, xpaxos_t2):
        driver = run_workload(xpaxos_t2)
        assert driver.throughput.total > 100

    def test_total_order_across_replicas(self, xpaxos_t2):
        run_workload(xpaxos_t2)
        assert SafetyChecker(xpaxos_t2).violations() == []

    def test_proof_contains_prepare_plus_t_commits(self, xpaxos_t2):
        run_workload(xpaxos_t2, duration_ms=500.0)
        primary = xpaxos_t2.replica(0)
        t = xpaxos_t2.config.t
        for _, entry in primary.commit_log.items():
            assert len(entry.proof) == 1 + t

    def test_all_active_replicas_commit(self, xpaxos_t2):
        run_workload(xpaxos_t2, duration_ms=1000.0)
        actives = [xpaxos_t2.replica(i) for i in (0, 1, 2)]
        counts = [r.committed_requests for r in actives]
        assert min(counts) > 0.9 * max(counts)

    def test_a_replayed_vote_for_a_committed_slot_keeps_no_table(
            self, xpaxos_t2):
        """The vote table of a slot goes when the slot commits; a
        duplicate or late vote used to re-create it until the next
        view, one per replayed slot."""
        isolate(xpaxos_t2)
        primary = xpaxos_t2.replica(0)
        request = xpaxos_t2.clients[0].make_request(("put", "k", "v"), 1, 16)
        batch = Batch((request,))
        primary.sn = 1
        primary.propose_batch(1, batch)
        votes = [msg.CommitVote.signed(
            xpaxos_t2.replica(f).sign, view=0, seqno=1,
            batch_digest=msg.batch_digest_of(batch), sender=f)
            for f in primary.groups.followers(0)]
        for vote in votes:
            primary.on_message(f"r{vote.sender}", vote)
        assert 1 in primary.commit_log and primary.ex == 1
        assert len(primary._commit_votes) == 0
        primary.on_message(f"r{votes[0].sender}", votes[0])
        assert len(primary._commit_votes) == 0
        # Nor once a checkpoint has truncated the slot away.
        primary.commit_log.truncate_to(1)
        primary.on_message(f"r{votes[1].sender}", votes[1])
        assert len(primary._commit_votes) == 0


class TestBatching:
    def test_batches_bounded_by_config(self):
        runtime = make_cluster(batch_size=4, num_clients=8)
        sizes = []
        runtime.replica(0).on_commit_batch = (
            lambda sn, batch: sizes.append(len(batch)))
        run_workload(runtime, duration_ms=500.0)
        assert sizes
        assert max(sizes) <= 4

    def test_partial_batches_flush_on_timeout(self):
        runtime = make_cluster(batch_size=100, num_clients=2)
        driver = run_workload(runtime, duration_ms=500.0)
        # 2 clients can never fill a 100-batch; the timer must flush.
        assert driver.throughput.total > 0


class TestRequestValidation:
    def test_unsigned_request_ignored(self, xpaxos_t1):
        primary = xpaxos_t1.replica(0)
        bogus = Request(op=1, timestamp=1, client=0, signature=None)
        primary.on_message("c0", msg.Replicate(bogus))
        xpaxos_t1.sim.run(until=500.0)
        assert primary.committed_requests == 0

    def test_forged_client_signature_ignored(self, xpaxos_t1):
        primary = xpaxos_t1.replica(0)
        keystore = xpaxos_t1.keystore
        forged_sig = keystore.forge_attempt("c9", "c0", (1, 1, 0))
        bogus = Request(op=1, timestamp=1, client=0, signature=forged_sig)
        primary.on_message("c0", msg.Replicate(bogus))
        xpaxos_t1.sim.run(until=500.0)
        assert primary.committed_requests == 0
