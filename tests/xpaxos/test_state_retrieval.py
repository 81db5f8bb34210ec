"""Tests for passive-replica state retrieval (Section 4.5.2's "retrieve
the missing state from others") and view fast-forwarding."""

import pytest

from repro.protocols.xpaxos import messages as msg
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
        xpaxos_t1.sim.call_at(1_000.0, passive.crash)
        xpaxos_t1.sim.call_at(2_500.0, passive.recover)
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
        primary._on_fetch("r2", msg.FetchEntries(1, end, 2))
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
        collected = []
        original_send = primary.send_authenticated

        def spy(dst, payload, size_bytes=0):
            if isinstance(payload, msg.FetchReply):
                collected.append(payload)
            original_send(dst, payload, size_bytes=size_bytes)

        primary.send_authenticated = spy
        primary._on_fetch("r2", msg.FetchEntries(1, floor, 2))
        assert collected
        reply = collected[0]
        # Entries below the floor are gone; the checkpoint substitutes.
        assert all(e.seqno > floor for e in reply.entries)
        assert reply.checkpoint is not None
        assert reply.checkpoint.seqno >= floor

    def test_fetch_pending_flag_prevents_storms(self, xpaxos_t1):
        passive = xpaxos_t1.replica(2)
        sent = []
        original = passive.multicast_authenticated

        def spy(dsts, payload, size_bytes=0):
            if isinstance(payload, msg.FetchEntries):
                sent.extend(payload for _ in dsts)
            original(dsts, payload, size_bytes=size_bytes)

        passive.multicast_authenticated = spy
        passive._fetch_missing(1, 5)
        passive._fetch_missing(1, 5)
        passive._fetch_missing(1, 5)
        # One request per active replica, once.
        assert len(sent) == xpaxos_t1.config.t + 1 or \
            len(sent) == len(passive._active_names()) - (
                1 if passive.is_active else 0)

    def test_fetch_retry_allowed_after_window(self, xpaxos_t1):
        passive = xpaxos_t1.replica(2)
        passive._fetch_missing(1, 5)
        assert passive._fetch_pending
        xpaxos_t1.sim.run(
            until=xpaxos_t1.sim.now + 2 * xpaxos_t1.config.delta_ms + 1.0)
        assert not passive._fetch_pending


class TestFetchReplyCheckpoint:
    """FETCH-REPLY is the third way a snapshot reaches ``restore``; its
    checkpoint is verified like LAZYCHK's and the view change's (see
    tests/xpaxos/test_checkpoint.py)."""

    def test_honest_checkpoint_installed(self, xpaxos_t1):
        passive = xpaxos_t1.replica(2)
        proof = checkpoint_proof(xpaxos_t1.keystore)
        passive._on_fetch_reply("r0", msg.FetchReply((), proof))
        assert (passive.ex, passive.sn) == (10, 10)
        assert passive.stable_checkpoint is proof

    @forgeries
    def test_forged_checkpoint_rejected(self, xpaxos_t1, forge):
        passive = xpaxos_t1.replica(2)
        proof = forge(xpaxos_t1.keystore)
        passive._on_fetch_reply("r0", msg.FetchReply((), proof))
        assert passive.ex == 0 and passive.app.executed_count == 0
        assert passive.stable_checkpoint is None


class TestViewFastForward:
    def test_lazy_commit_from_newer_view_advances_view(self, xpaxos_t1):
        from repro.smr.log import CommitEntry
        from repro.smr.messages import Batch, Request

        passive = xpaxos_t1.replica(0)  # passive in view 2
        batch = Batch((Request(op=1, timestamp=1, client=0),))
        sig = xpaxos_t1.keystore.sign("r1", ("e", 1))
        entry = CommitEntry(1, 2, batch, (sig,))
        passive._on_lazy_commit("r2", msg.LazyCommit(2, 1, entry))
        assert passive.view == 2

    def test_no_fast_forward_when_active_in_that_view(self, xpaxos_t1):
        """A replica that is ACTIVE in the newer view must go through the
        real view change, not silently jump."""
        from repro.smr.log import CommitEntry
        from repro.smr.messages import Batch, Request

        replica = xpaxos_t1.replica(0)  # active (primary) in view 1
        batch = Batch((Request(op=1, timestamp=1, client=0),))
        sig = xpaxos_t1.keystore.sign("r2", ("e", 1))
        entry = CommitEntry(1, 1, batch, (sig,))
        replica._on_lazy_commit("r2", msg.LazyCommit(1, 1, entry))
        assert replica.view == 0
