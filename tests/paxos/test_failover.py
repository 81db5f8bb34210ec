"""Tests for Paxos leader failover (phase 1)."""

import pytest

from repro.common.config import ProtocolName
from repro.faults.injector import FaultSchedule
from repro.protocols.base import ClientRequestMsg, SyncRequest
from repro.protocols.paxos.replica import (
    Accept,
    Accepted,
    Learn,
    NewBallot,
    Promise,
)
from repro.smr.messages import Batch, Request
from tests.conftest import isolate, make_cluster, make_harness


def run_with_crash(crash_at, downtime, duration=8_000.0, victim=0):
    harness = make_harness(ProtocolName.PAXOS)
    harness.arm(FaultSchedule().crash_for(crash_at, victim, downtime))
    driver = harness.drive(duration_ms=duration)
    return harness, driver


class TestLeaderFailover:
    def test_progress_resumes_after_leader_crash(self):
        harness, driver = run_with_crash(1_000.0, 2_000.0)
        harness.checker.assert_safe()
        assert driver.throughput.total > 500
        # A new ballot was established with a different leader.
        live_views = {r.view for r in harness.replicas if not r.crashed}
        assert max(live_views) >= 1

    def test_commits_continue_after_failover_settles(self):
        """The election must terminate: commits flow to the end of the
        run, not just before the crash (the livelock regression)."""
        harness, driver = run_with_crash(1_000.0, 2_000.0)
        last_commit = max(c.completions[-1][1]
                          for c in harness.runtime.clients
                          if c.completions)
        assert last_commit > 7_000.0, \
            f"commits stopped at t={last_commit:.0f} ms"

    def test_new_leader_is_ballot_mod_n(self):
        harness, driver = run_with_crash(1_000.0, 5_000.0,
                                         duration=6_000.0)
        top_view = max(r.view for r in harness.replicas)
        assert top_view % harness.runtime.config.n != 0 or top_view == 0

    def test_committed_state_survives_failover(self):
        """Entries decided under the old leader must survive into the new
        ballot (phase-1 merge)."""
        harness, driver = run_with_crash(1_500.0, 4_000.0)
        harness.checker.assert_safe()
        assert harness.checker.violations() == []
        # Clients committed both before and after the crash.
        for client in harness.runtime.clients:
            timestamps = [rid[1] for _, _, rid in client.completions]
            assert timestamps == list(range(1, len(timestamps) + 1))

    def test_acceptor_crash_does_not_stop_progress(self):
        """Crashing a non-leader acceptor: the common case blocks (the
        leader needs that acceptor), so failover to a ballot with live
        acceptors must occur."""
        harness, driver = run_with_crash(1_000.0, 2_000.0, victim=1)
        harness.checker.assert_safe()
        assert driver.throughput.total > 300

    def test_no_elections_in_fault_free_run(self):
        harness = make_harness(ProtocolName.PAXOS)
        harness.drive(duration_ms=3_000.0)
        assert all(r.elections_started == 0 for r in harness.replicas)
        assert all(r.view == 0 for r in harness.replicas)

    def test_stale_ballot_messages_ignored(self):
        runtime = make_cluster(ProtocolName.PAXOS, num_clients=1)
        replica = runtime.replica(1)
        replica.view = 5
        replica.on_message("r2", NewBallot(3, 2))
        assert replica.view == 5


def _request(timestamp):
    return Request(op=("put", "k", timestamp), timestamp=timestamp,
                   client=0, size_bytes=16)


def _batch(timestamp):
    return Batch((_request(timestamp),))


def replica_accepted(leader, seqno, sender):
    return Accepted(leader.view, seqno,
                    leader.batch_digest(leader._proposed[seqno]), sender)


class TestWhomTheWinnerOrdersThrough:
    """One replica of a t = 2 cluster with its wires cut; the test speaks
    for the promisers."""

    def campaigning(self, candidate=3, executed=0):
        runtime = make_cluster(ProtocolName.PAXOS, t=2, num_clients=1)
        sent = isolate(runtime)
        replica = runtime.replica(candidate)
        replica.ex = replica.sn = executed
        replica.suspect_view(0)
        assert replica._pending_ballot == candidate
        return runtime, sent, replica

    def promise(self, replica, sender, entries=(), executed_upto=0):
        replica.on_message(f"r{sender}", Promise(
            replica._pending_ballot, sender, tuple(entries), executed_upto))

    def test_view_zero_keeps_the_papers_placement(self):
        runtime = make_cluster(ProtocolName.PAXOS, t=2, num_clients=1)
        leader = runtime.replica(0)
        assert leader.common_case_acceptors() == [1, 2]
        assert leader.passive_ids() == [3, 4]

    def test_acceptors_are_the_replicas_that_promised(self):
        runtime, sent, replica = self.campaigning()
        self.promise(replica, 4)
        assert replica._pending_ballot == 3  # two of three so far
        self.promise(replica, 1)
        assert replica._pending_ballot is None and replica.view == 3
        # r0 and r2 never answered: nothing is ordered through them.
        assert replica.common_case_acceptors() == [1, 4]
        assert replica.passive_ids() == [0, 2]
        del sent[:]
        replica.propose_batch(1, _batch(1))
        assert [dst for dst, _ in sent.of(Accept)] == ["r1", "r4"]
        for acceptor in (1, 4):
            replica.on_message(f"r{acceptor}", replica_accepted(
                replica, 1, acceptor))
        assert [dst for dst, _ in sent.of(Learn)] == ["r0", "r2"]
        assert replica.ex == 1

    def test_no_accept_before_a_majority_promised(self):
        """Phase 2 after phase 1: a request reaching the candidate between
        its NEW-BALLOT and a majority of PROMISEs is queued, not proposed
        to the acceptors of the old ballot, and is ordered once the ballot
        is won -- through the replicas that promised."""
        runtime, sent, replica = self.campaigning()
        proposed = []
        propose_batch = replica.propose_batch

        def spy(seqno, batch):
            proposed.append(seqno)
            propose_batch(seqno, batch)

        replica.propose_batch = spy
        replica.on_message("c0", ClientRequestMsg(_request(1)))
        runtime.sim.run(until=runtime.sim.now + 50.0)
        self.promise(replica, 4)
        runtime.sim.run(until=runtime.sim.now + 50.0)
        assert proposed == [] and sent.of(Accept) == []
        self.promise(replica, 1)
        runtime.sim.run(until=runtime.sim.now + 1.0)
        assert proposed == [1]
        assert [dst for dst, _ in sent.of(Accept)] == ["r1", "r4"]

    @pytest.mark.parametrize("role, campaigner", [("candidate", 4),
                                                  ("leader", 3)])
    def test_a_replica_taking_a_fresher_ballot_hands_its_queue_over(
            self, role, campaigner):
        """A candidate superseded by a fresher campaign, and the leader
        that campaign deposes, forward what they queued to the
        campaigner."""
        if role == "candidate":
            runtime, sent, replica = self.campaigning()
        else:
            runtime = make_cluster(ProtocolName.PAXOS, t=2, num_clients=1)
            sent = isolate(runtime)
            replica = runtime.replica(0)
        request = _request(1)
        replica.on_message("c0", ClientRequestMsg(request))  # queued
        del sent[:]
        replica.on_message(f"r{campaigner}",
                           NewBallot(campaigner, campaigner))
        assert replica._pending_ballot is None
        assert replica.view == campaigner and not replica.is_leader
        assert sent.of(ClientRequestMsg) == [
            (f"r{campaigner}", ClientRequestMsg(request))]
        assert replica.sequencer.pending == []
        assert request.rid not in replica.sequencer.seen

    def test_merge_reproposes_what_some_promiser_has_not_executed(self):
        # r1 was an acceptor of the old leader and executed through 6; r4
        # was passive and stopped at 4, and so did we.
        runtime, sent, replica = self.campaigning(executed=4)
        window = [(sn, 0, _batch(sn)) for sn in (4, 5, 6)]
        del sent[:]
        self.promise(replica, 1, window, executed_upto=6)
        self.promise(replica, 4, window[:1], executed_upto=4)
        reproposed = sorted({m.seqno for _, m in sent.of(Accept)})
        assert reproposed == [5, 6]
        assert replica.sn == 6

    def test_a_carried_request_queued_while_campaigning_is_ordered_once(
            self):
        """A client's re-send that queued at the candidate is also in a
        promiser's window: the merge re-proposes it, and the sequencer
        must not order it a second time in the next slot."""
        runtime, sent, replica = self.campaigning(executed=4)
        request = _request(5)
        replica.on_message("c0", ClientRequestMsg(request))
        assert replica.sequencer.pending == [request]
        window = [(5, 0, Batch((request,)))]
        del sent[:]
        self.promise(replica, 1, window, executed_upto=4)
        self.promise(replica, 4, window, executed_upto=4)
        runtime.sim.run(until=runtime.sim.now + 50.0)
        assert sorted({m.seqno for _, m in sent.of(Accept)}) == [5]
        assert replica.sequencer.pending == []
        assert request.rid in replica.sequencer.seen

    def test_a_winner_behind_its_promisers_windows_asks_for_the_rest(self):
        runtime, sent, replica = self.campaigning()
        window = [(sn, 0, _batch(sn)) for sn in (290, 291)]
        del sent[:]
        self.promise(replica, 1, window, executed_upto=291)
        self.promise(replica, 4, (), executed_upto=300)  # restored, no log
        assert replica.ex == 0
        # New slots are numbered above everything anyone executed...
        assert replica.sn == 300
        # ...and the one furthest ahead is asked for what lies below.
        assert sent.of(SyncRequest) == [("r4", SyncRequest(3, 0))]

