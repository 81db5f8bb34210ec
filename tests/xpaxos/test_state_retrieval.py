"""Tests for passive-replica state retrieval (Section 4.5.2's "retrieve
the missing state from others") and view fast-forwarding."""

import signal
from contextlib import contextmanager

from repro.protocols.xpaxos import messages as msg
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch, Request
from tests.conftest import (
    checkpoint_proof,
    forgeries,
    make_cluster,
    run_workload,
)


class TestFetchOnGap:
    def test_recovered_passive_replica_backfills_hole(self, xpaxos_t1):
        """Crash the passive replica mid-run: lazy commits sent while it is
        down are lost; on recovery the gap must be fetched and filled."""
        passive = xpaxos_t1.replica(2)
        # Let some traffic commit, crash the passive, let more commit,
        # recover, let more commit -- then check it executed everything.
        from repro.common.config import WorkloadConfig
        from repro.workloads.clients import ClosedLoopDriver

        driver = ClosedLoopDriver(
            xpaxos_t1,
            WorkloadConfig(num_clients=3, request_size=64,
                           duration_ms=6_000.0, warmup_ms=0.0))
        xpaxos_t1.sim.schedule(1_000.0, passive.crash)
        xpaxos_t1.sim.schedule(2_500.0, passive.recover)
        driver.run()
        primary = xpaxos_t1.replica(0)
        assert primary.committed_requests > 0
        # The passive replica caught up over the hole.
        assert passive.ex >= 0.95 * primary.ex

    def test_fetch_reply_carries_requested_entries(self, xpaxos_t1):
        run_workload(xpaxos_t1, duration_ms=1_000.0)
        primary = xpaxos_t1.replica(0)
        passive = xpaxos_t1.replica(2)
        end = primary.commit_log.end
        assert end >= 2
        primary.lazy._on_fetch("r2", msg.FetchEntries(1, end, 2))
        xpaxos_t1.sim.run(until=xpaxos_t1.sim.now + 100.0)
        # The reply is consumed by the passive replica transparently; its
        # log covers the range.
        for seqno in range(1, end + 1):
            assert passive.ex >= end or seqno in passive.commit_log

    def test_fetch_respects_checkpoint_floor(self):
        """Entries below the responder's checkpoint come back as the
        checkpoint itself."""
        runtime = make_cluster(checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=2_000.0)
        primary = runtime.replica(0)
        assert primary.stable_checkpoint is not None
        floor = primary.commit_log.low_water
        collected = spy_on_fetch_replies(primary)
        primary.lazy._on_fetch("r2", msg.FetchEntries(1, floor, 2))
        assert collected
        reply = collected[0]
        # Entries below the floor are gone; the checkpoint substitutes.
        assert all(e.seqno > floor for e in reply.entries)
        assert reply.checkpoint is not None
        assert reply.checkpoint.seqno >= floor

    def test_huge_fetch_range_is_served_from_the_log(self):
        """The range is unvalidated wire input: one FETCH-ENTRIES for
        [1, 10**9] must cost a walk over the responder's own log (a
        checkpoint window), not a billion iterations, and return exactly
        what asking for the log's real extent returns."""
        runtime = make_cluster(checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=1_000.0)
        primary = runtime.replica(0)
        assert len(primary.commit_log) >= 2
        replies = spy_on_fetch_replies(primary)
        with within(seconds=5.0):
            primary.lazy._on_fetch(
                "r2", msg.FetchEntries(1, primary.commit_log.end, 2))
            primary.lazy._on_fetch("r2", msg.FetchEntries(1, 10**9, 2))
            primary.lazy._on_fetch("r2",
                                   msg.FetchEntries(-10**9, 10**9, 2))
        exact, huge, both_ways = replies
        assert exact.entries == huge.entries == both_ways.entries
        assert [e.seqno for e in exact.entries] == \
            [sn for sn, _ in primary.commit_log.items()]

    def test_fetch_pending_flag_prevents_storms(self, xpaxos_t1):
        passive = xpaxos_t1.replica(2)
        sent = spy_on_fetches(passive)
        passive.lazy.fetch_missing(1, 5)
        passive.lazy.fetch_missing(1, 5)
        passive.lazy.fetch_missing(1, 5)
        # One request per active replica, once.
        assert len(sent) == xpaxos_t1.config.t + 1 or \
            len(sent) == len(passive._active_names()) - (
                1 if passive.is_active else 0)

    def test_fetch_retry_allowed_after_window(self, xpaxos_t1):
        passive = xpaxos_t1.replica(2)
        passive.lazy.fetch_missing(1, 5)
        assert passive.lazy._fetch_pending
        xpaxos_t1.sim.run(
            until=xpaxos_t1.sim.now + 2 * xpaxos_t1.config.delta_ms + 1.0)
        assert not passive.lazy._fetch_pending

    def test_fetch_outstanding_at_a_crash_does_not_block_the_next(
            self, xpaxos_t1):
        """A passive replica issues a fetch, crashes, and is still down
        when the 2-Delta re-fetch window closes (``Process.after`` runs
        nothing on a crashed process).  Once recovered, a LAZY-COMMIT
        above a hole must send FETCH-ENTRIES again."""
        passive = xpaxos_t1.replica(2)
        sim, delta = xpaxos_t1.sim, xpaxos_t1.config.delta_ms
        sent = spy_on_fetches(passive)
        passive.lazy.fetch_missing(1, 5)
        assert len(sent) == 2
        passive.crash()
        sim.run(until=sim.now + 10 * delta)
        passive.recover()
        sim.run(until=sim.now + 10 * delta)
        batch = Batch((Request(op=1, timestamp=1, client=0),))
        sig = xpaxos_t1.keystore.sign("r1", ("e", 7))
        passive.lazy._on_lazy_commit("r1", msg.LazyCommit(
            0, 7, CommitEntry(7, 0, batch, (sig,))))
        assert [(f.from_seqno, f.to_seqno) for f in sent[2:]] == \
            [(1, 6), (1, 6)]


@contextmanager
def within(seconds):
    """Fail, instead of hanging the suite, if the body is still running
    after ``seconds`` of wall clock."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def spy_on_fetches(replica):
    """Every FETCH-ENTRIES ``replica`` sends from now on, one per
    destination."""
    sent = []
    original = replica.multicast_authenticated

    def spy(dsts, payload):
        if isinstance(payload, msg.FetchEntries):
            sent.extend(payload for _ in dsts)
        original(dsts, payload)

    replica.multicast_authenticated = spy
    return sent


def spy_on_fetch_replies(replica):
    """Every FETCH-REPLY ``replica`` sends from now on."""
    collected = []
    original = replica.send_authenticated

    def spy(dst, payload):
        if isinstance(payload, msg.FetchReply):
            collected.append(payload)
        original(dst, payload)

    replica.send_authenticated = spy
    return collected


class TestFetchReplyCheckpoint:
    """FETCH-REPLY is the third way a snapshot reaches ``restore``; its
    checkpoint is verified like LAZYCHK's and the view change's (see
    tests/xpaxos/test_checkpoint.py)."""

    def test_honest_checkpoint_installed(self, xpaxos_t1):
        passive = xpaxos_t1.replica(2)
        proof = checkpoint_proof(xpaxos_t1.keystore)
        passive.lazy._on_fetch_reply("r0", msg.FetchReply((), proof))
        assert (passive.ex, passive.sn) == (10, 10)
        assert passive.stable_checkpoint is proof

    @forgeries
    def test_forged_checkpoint_rejected(self, xpaxos_t1, forge):
        passive = xpaxos_t1.replica(2)
        proof = forge(xpaxos_t1.keystore)
        passive.lazy._on_fetch_reply("r0", msg.FetchReply((), proof))
        assert passive.ex == 0 and passive.app.snapshot()[0] == 0
        assert passive.stable_checkpoint is None


class TestViewFastForward:
    def test_lazy_commit_from_newer_view_advances_view(self, xpaxos_t1):
        passive = xpaxos_t1.replica(0)  # passive in view 2
        batch = Batch((Request(op=1, timestamp=1, client=0),))
        sig = xpaxos_t1.keystore.sign("r1", ("e", 1))
        entry = CommitEntry(1, 2, batch, (sig,))
        passive.lazy._on_lazy_commit("r2", msg.LazyCommit(2, 1, entry))
        assert passive.view == 2

    def test_no_fast_forward_when_active_in_that_view(self, xpaxos_t1):
        """A replica that is ACTIVE in the newer view must go through the
        real view change, not silently jump."""
        replica = xpaxos_t1.replica(0)  # active (primary) in view 1
        batch = Batch((Request(op=1, timestamp=1, client=0),))
        sig = xpaxos_t1.keystore.sign("r2", ("e", 1))
        entry = CommitEntry(1, 1, batch, (sig,))
        replica.lazy._on_lazy_commit("r2", msg.LazyCommit(1, 1, entry))
        assert replica.view == 0
