"""Component-level tests for :class:`Retransmitter` (Algorithm 4, replica
side), driven directly on one replica of a cluster whose wires are cut.
(The client side and the end-to-end runs are ``test_retransmission.py``;
forged shares are ``test_signed_replies_forgery.py``.)"""

import pytest

from repro.protocols.xpaxos import messages as msg
from repro.smr.messages import Batch
from tests.conftest import isolate, make_cluster

T = pytest.mark.parametrize("t", [1, 2])


def executed_everywhere(t):
    """``(runtime, sent, request)``: one signed request executed as slot 1
    by every replica (wires cut, so nobody has answered anybody)."""
    runtime = make_cluster(t=t)
    sent = isolate(runtime)
    request = runtime.clients[0].make_request(("put", "k", "v"), 1, 16)
    batch = Batch((request,))
    for replica in runtime.replicas:
        replica.cache_unsent(1, batch, replica.execute_slot(1, batch))
    return runtime, sent, request


def share_of(runtime, replica_id, request):
    """The share ``replica_id`` would circulate for ``request``."""
    peer = runtime.replica(replica_id)
    cached = peer.cached_reply(request.client, request.timestamp)
    return msg.SignedReplyShare.signed(
        peer.sign, view=0, seqno=cached.seqno, timestamp=cached.timestamp,
        client=cached.client, reply_digest=cached.result_digest,
        result=cached.result, sender=replica_id)


@T
def test_resend_of_an_executed_request_circulates_our_share(t):
    runtime, sent, request = executed_everywhere(t)
    primary = runtime.replica(0)
    primary.on_message("c0", msg.ReSend(request))
    state = primary.retransmitter.waiting[request.rid]
    shares = sent.of(msg.SignedReplyShare)
    assert [dst for dst, _ in shares] == \
        [f"r{r}" for r in primary.groups.followers(0)]
    assert list(state.shares) == [0] and state.timer.armed
    assert not state.done and sent.of(msg.SignedReplies) == []
    assert primary.retained()["retransmissions"] == 1


@T
def test_t_plus_one_matching_shares_send_one_bundle_and_stop_the_timer(t):
    runtime, sent, request = executed_everywhere(t)
    primary = runtime.replica(0)
    retransmitter = primary.retransmitter
    primary.on_message("c0", msg.ReSend(request))
    state = retransmitter.waiting[request.rid]
    followers = primary.groups.followers(0)
    for follower in followers[:-1]:
        primary.on_message(f"r{follower}",
                           share_of(runtime, follower, request))
    assert sent.of(msg.SignedReplies) == [] and state.timer.armed
    primary.on_message(f"r{followers[-1]}",
                       share_of(runtime, followers[-1], request))
    (dst, bundle), = sent.of(msg.SignedReplies)
    assert dst == "c0"
    assert [s.sender for s in bundle.shares] == [0, *followers]
    assert state.done and not state.timer.armed
    # Settled: a late share, or the client's next RE-SEND, adds nothing.
    del sent[:]
    primary.on_message(f"r{followers[0]}",
                       share_of(runtime, followers[0], request))
    primary.on_message("c0", msg.ReSend(request))
    assert sent == [] and not state.timer.armed


@T
def test_a_peer_collecting_shares_gets_ours_once_we_have_executed(t):
    """Algorithm 4 line 7: a share for a request nobody re-sent to us
    makes us join in -- if we executed it."""
    runtime, sent, request = executed_everywhere(t)
    follower = runtime.replica(1)
    follower.on_message("r0", share_of(runtime, 0, request))
    state = follower.retransmitter.waiting[request.rid]
    assert sorted(state.shares) == [0, 1]
    assert {m.sender for _, m in sent.of(msg.SignedReplyShare)} \
        == {1}
    # Not executed here: nothing to contribute, nothing kept.
    runtime2 = make_cluster(t=t)
    isolate(runtime2)
    idle = runtime2.replica(1)
    idle.on_message("r0", share_of(runtime, 0, request))
    assert idle.retransmitter.waiting == {}


@T
def test_unanswered_retransmission_suspects_the_view_and_tells_the_client(t):
    runtime = make_cluster(t=t)
    sent = isolate(runtime)
    request = runtime.clients[0].make_request(("put", "k", "v"), 1, 16)
    follower = runtime.replica(1)
    follower.on_message("c0", msg.ReSend(request))
    # Not executed: forwarded to the primary, and the clock starts.
    assert [(dst, m.request) for dst, m in sent.of(msg.Replicate)] \
        == [("r0", request)]
    state = follower.retransmitter.waiting[request.rid]
    config = runtime.config
    runtime.sim.run(until=runtime.sim.now + 2 * config.delta_ms
                    + 8 * config.batch_timeout_ms + 1.0)
    suspects = sent.of(msg.Suspect)
    assert "c0" in [dst for dst, _ in suspects]
    assert {m.view for _, m in suspects} == {0}
    assert (follower.view, follower.in_view_change) == (1, True)
    assert not state.done


def test_resends_during_a_view_change_wait_for_the_new_view():
    runtime, sent, request = executed_everywhere(1)
    primary = runtime.replica(0)  # primary of view 1 = (r0, r2) too
    retransmitter = primary.retransmitter
    primary.view_changer._enter_view(1)
    primary.on_message("c0", msg.ReSend(request))
    assert retransmitter.waiting == {}
    assert len(retransmitter._buffered_resends) == 1
    # Buffered RE-SENDs survive a crash (``recover()`` says what does not).
    primary.crash()
    primary.recover()
    assert len(retransmitter._buffered_resends) == 1
    primary.in_view_change = True
    primary.start_view()
    runtime.sim.run(until=runtime.sim.now + 1.0)
    assert retransmitter._buffered_resends == []
    assert request.rid in retransmitter.waiting


def test_a_view_change_gives_waiting_requests_a_fresh_window():
    runtime, sent, request = executed_everywhere(1)
    primary = runtime.replica(0)
    primary.on_message("c0", msg.ReSend(request))
    state = primary.retransmitter.waiting[request.rid]
    config = runtime.config
    before = state.timer.deadline
    primary.view_changer._enter_view(1)
    assert state.timer.deadline == pytest.approx(
        runtime.sim.now + 4 * config.delta_ms + 8 * config.batch_timeout_ms)
    assert state.timer.deadline > before


def leaving_the_group_after_view(runtime, view):
    """A follower of ``view`` that is passive in ``view + 1``."""
    groups = runtime.replica(0).groups
    return runtime.replica(next(
        r for r in groups.followers(view)
        if not groups.is_active(view + 1, r)))


@T
def test_a_replica_passive_in_the_view_it_enters_times_nothing(t):
    """Algorithm 4 is the active replicas': entering a view it is passive
    in, a replica disarms its retransmission timers -- it used to re-arm
    them, and when one fired sign a SUSPECT no client accepts -- and keeps
    the records, for the next view it is active in to replay."""
    runtime = make_cluster(t=t)
    sent = isolate(runtime)
    config = runtime.config
    request = runtime.clients[0].make_request(("put", "k", "v"), 1, 16)
    replica = leaving_the_group_after_view(runtime, 0)
    replica.on_message("c0", msg.ReSend(request))
    state = replica.retransmitter.waiting[request.rid]
    assert state.timer.armed
    replica.view_changer._enter_view(1)
    assert not state.timer.armed and not state.done
    del sent[:]
    runtime.sim.run(until=runtime.sim.now + 4 * config.delta_ms
                    + 8 * config.batch_timeout_ms + 1.0)
    assert sent.of(msg.Suspect) == [] and replica.view == 1
    assert replica.retransmitter.waiting == {request.rid: state}
    # Active again: the installed view replays the record, and the clock
    # starts again.
    view = next(v for v in range(2, 10)
                if replica.groups.is_active(v, replica.replica_id))
    replica.view_changer._advance_to(view)
    assert not state.timer.armed
    replica.start_view()
    runtime.sim.run(until=runtime.sim.now + 1.0)
    assert state.timer.armed and not state.done


@T
def test_a_timer_that_fires_on_a_passive_replica_signs_nothing(t):
    """A peer's share makes a passive replica that executed the request
    join the collection (``_start``), timer and all; what that timer may
    do when it fires is an active replica's business."""
    runtime, sent, request = executed_everywhere(t)
    config = runtime.config
    passive = runtime.replica(next(
        r for r in range(config.n)
        if r not in runtime.replica(0).groups.group(0)))
    passive.on_message("r0", share_of(runtime, 0, request))
    state = passive.retransmitter.waiting[request.rid]
    assert state.timer.armed
    del sent[:]
    runtime.sim.run(until=runtime.sim.now + 3 * config.delta_ms
                    + 8 * config.batch_timeout_ms + 1.0)
    assert sent == [] and passive.view == 0
    assert not state.timer.armed and not state.done


@T
def test_a_settled_record_goes_when_the_clients_next_slot_executes(t):
    """One record per client, not one per request it ever re-sent: the
    settled record stays while its request is the client's latest (a late
    share must add nothing) and goes, timer and all, when the next one
    executes -- here, or on a replica that executes without answering."""
    runtime, sent, request = executed_everywhere(t)
    primary, follower = runtime.replica(0), runtime.replica(1)
    for replica in (primary, follower):
        replica.on_message("c0", msg.ReSend(request))
        for peer in replica.groups.group(0):
            if peer != replica.replica_id:
                replica.on_message(f"r{peer}",
                                   share_of(runtime, peer, request))
        state = replica.retransmitter.waiting[request.rid]
        assert state.done and state.timer in replica._timers
    # Somebody else's slot changes nothing.
    other = Batch((runtime.clients[1].make_request(("get", "k"), 1, 16),))
    primary._reply_to_clients(2, other, primary.execute_slot(2, other))
    follower.cache_unsent(2, other, follower.execute_slot(2, other))
    assert primary.retained()["retransmissions"] == 1
    assert follower.retained()["retransmissions"] == 1
    late = share_of(runtime, 1, request)
    following = Batch((runtime.clients[0].make_request(("get", "k"), 2, 16),))
    primary._reply_to_clients(3, following,
                              primary.execute_slot(3, following))
    follower.cache_unsent(3, following, follower.execute_slot(3, following))
    for replica in (primary, follower):
        assert replica.retained()["retransmissions"] == 0
        assert state.timer not in replica._timers
    # A RE-SEND or a share for the request the client has moved past
    # leaves no record behind either.
    del sent[:]
    primary.on_message("c0", msg.ReSend(request))
    primary.on_message("r1", late)
    assert primary.retransmitter.waiting == {} and sent == []


def test_a_crash_leaves_neither_records_nor_their_timers():
    runtime, sent, request = executed_everywhere(1)
    primary = runtime.replica(0)
    registered = len(primary._timers)
    primary.on_message("c0", msg.ReSend(request))
    assert len(primary._timers) == registered + 1
    primary.crash()
    primary.recover()
    assert primary.retransmitter.waiting == {}
    assert len(primary._timers) == registered
