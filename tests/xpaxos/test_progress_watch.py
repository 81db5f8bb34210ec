"""Component-level tests for :class:`ProgressWatch` (an active replica
suspects a view whose prepared slot does not commit within the synchrony
bound), driven directly on the replicas of a cluster whose wires are cut:
the test carries the peers' messages by hand, or leaves them undelivered.
(The end-to-end runs are ``tests/integration/test_failover_cost.py``.)"""

import pytest

from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.progress import commit_bound_ms
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch
from tests.conftest import isolate, make_cluster

T = pytest.mark.parametrize("t", [1, 2])


def cut_cluster(t):
    """``(runtime, sent, the primary of view 0, the commit bound)``."""
    runtime = make_cluster(t=t)
    sent = isolate(runtime)
    return runtime, sent, runtime.replica(0), commit_bound_ms(runtime.config)


def propose(runtime, primary, slots=1):
    """The primary orders ``slots`` more one-request batches, as its
    sequencer would."""
    for _ in range(slots):
        primary.sn += 1
        request = runtime.clients[0].make_request(
            ("put", "k", primary.sn), primary.sn, 16)
        primary.propose_batch(primary.sn, Batch((request,)))


def carry(runtime, sent, cls, seqno=None):
    """Deliver by hand what was sent of class ``cls`` (for slot ``seqno``
    only, if given) and take it out of the outbox."""
    chosen = [(src, dst, m) for src, dst, m in sent
              if isinstance(m, cls) and seqno in (None, m.seqno)]
    sent[:] = [item for item in sent if item not in chosen]
    for src, dst, m in chosen:
        runtime.replica(int(dst[1:])).on_message(src, m)


def commit(runtime, sent, seqno):
    """The followers' answers for ``seqno`` reach whom they were sent to
    (their prepares were carried before)."""
    carry(runtime, sent, msg.FastCommit if runtime.config.t == 1
          else msg.CommitVote, seqno)


def prepares_reach_followers(runtime, sent):
    carry(runtime, sent, msg.FastPrepare if runtime.config.t == 1
          else msg.Prepare)


def suspected_views(sent):
    return sorted({m.view for _, m in sent.of(msg.Suspect)})


@T
def test_the_first_outstanding_slot_arms_one_timer_for_a_hundred_more(t):
    runtime, sent, primary, bound = cut_cluster(t)
    watch = primary.progress
    assert watch._seqno is None and not watch._timer.armed
    propose(runtime, primary)
    assert watch._seqno == 1
    assert watch._timer.deadline == runtime.sim.now + bound
    scheduled = runtime.sim.stats()["scheduled"]
    runtime.sim.run(until=runtime.sim.now + 5.0)
    propose(runtime, primary, slots=100)
    assert watch._seqno == 1 and watch._timer.deadline == bound
    assert runtime.sim.stats()["scheduled"] == scheduled


@T
def test_a_commit_of_the_watched_slot_moves_the_watch_to_the_next_one(t):
    runtime, sent, primary, bound = cut_cluster(t)
    watch = primary.progress
    propose(runtime, primary, slots=3)
    prepares_reach_followers(runtime, sent)
    runtime.sim.run(until=10.0)
    commit(runtime, sent, 2)            # not the watched one: nothing moves
    assert (watch._seqno, watch._since) == (1, 0.0)
    commit(runtime, sent, 1)            # the oldest still outstanding is 3
    assert 1 in primary.commit_log and 2 in primary.commit_log
    assert (watch._seqno, watch._since) == (3, 10.0)
    commit(runtime, sent, 3)
    assert watch._seqno is None
    # No start or stop in all that: the timer armed for slot 1 fires,
    # finds nothing outstanding and stays idle until the next slot.
    assert watch._timer.deadline == bound
    runtime.sim.run(until=bound + 1.0)
    assert not watch._timer.armed and suspected_views(sent) == []
    propose(runtime, primary)
    assert watch._seqno == 4 and watch._timer.armed


@T
def test_a_slot_outstanding_for_the_whole_bound_suspects_the_view(t):
    runtime, sent, primary, bound = cut_cluster(t)
    propose(runtime, primary)
    runtime.sim.run(until=bound - 1.0)
    assert suspected_views(sent) == [] and primary.view == 0
    runtime.sim.run(until=bound + 1.0)
    assert suspected_views(sent) == [0]
    assert {dst for dst, _ in sent.of(msg.Suspect)} \
        == {f"r{r}" for r in range(1, runtime.config.n)}
    assert (primary.view, primary.in_view_change) == (1, True)
    assert primary.progress._seqno is None


def test_a_follower_whose_peers_vote_never_comes_suspects_the_view():
    """t >= 2: a follower holds the primary's PREPARE and its own vote;
    the slot commits only with every other follower's."""
    runtime, sent, primary, bound = cut_cluster(2)
    propose(runtime, primary)
    prepares_reach_followers(runtime, sent)
    follower = runtime.replica(1)
    assert follower.progress._seqno == 1
    assert 1 not in follower.commit_log
    runtime.sim.run(until=bound + 1.0)
    assert (follower.view, follower.in_view_change) == (1, True)
    assert ("r1", 0) in {(src, m.view) for src, _, m in sent
                         if isinstance(m, msg.Suspect)}


def test_the_t1_follower_commits_as_it_accepts_and_watches_nothing():
    runtime, sent, primary, bound = cut_cluster(1)
    propose(runtime, primary, slots=3)
    prepares_reach_followers(runtime, sent)
    follower = runtime.replica(1)
    assert follower.sn == 3 and 3 in follower.commit_log
    assert follower.progress._seqno is None
    assert not follower.progress._timer.armed


@T
def test_expiry_gives_a_watch_that_moved_on_what_is_left_of_its_bound(t):
    runtime, sent, primary, bound = cut_cluster(t)
    watch = primary.progress
    propose(runtime, primary)
    prepares_reach_followers(runtime, sent)
    runtime.sim.run(until=30.0)
    propose(runtime, primary)
    runtime.sim.run(until=40.0)
    commit(runtime, sent, 1)
    assert (watch._seqno, watch._since) == (2, 40.0)
    # Slot 1's timer: slot 2 has not had its bound, so nobody is
    # suspected and the one timer is re-armed for the remainder ...
    runtime.sim.run(until=bound + 1.0)
    assert suspected_views(sent) == []
    assert watch._timer.deadline == 40.0 + bound
    # ... at the end of which slot 2 is still outstanding.
    runtime.sim.run(until=40.0 + bound + 1.0)
    assert suspected_views(sent) == [0] and primary.view == 1


@T
def test_a_slot_committed_without_a_report_is_not_suspected(t):
    """A LAZY-COMMIT or a state transfer fills the commit log without
    going through the ordering path: expiry looks before it suspects."""
    runtime, sent, primary, bound = cut_cluster(t)
    watch = primary.progress
    propose(runtime, primary, slots=2)
    for seqno in (1, 2):
        prepared = primary.prepare_log.get(seqno)
        primary.commit_log.put(seqno, CommitEntry(
            seqno, 0, prepared.batch, (prepared.primary_sig,)))
    assert watch._seqno == 1
    runtime.sim.run(until=bound + 1.0)
    assert suspected_views(sent) == [] and primary.view == 0
    assert watch._seqno is None and not watch._timer.armed


def test_a_replica_that_is_not_active_in_its_view_suspects_nothing():
    """Lazy traffic moves a passive replica's ``view`` without a view
    change (``saw_lazy_commit``): a watch left over from the view it was
    active in is dropped at expiry, by ``suspect_view``'s own gate."""
    runtime, sent, primary, bound = cut_cluster(1)
    propose(runtime, primary)
    primary.view = 2    # (r1, r2): r0 is passive
    assert not primary.is_active
    runtime.sim.run(until=bound + 1.0)
    assert sent.of(msg.Suspect) == [] and primary.view == 2
    assert primary.progress._seqno is None


@T
def test_leaving_the_view_forgets_the_watch(t):
    runtime, sent, primary, bound = cut_cluster(t)
    propose(runtime, primary)
    runtime.sim.run(until=50.0)
    # r0 is active in view 1 at t = 1 and passive in it at t = 2; either
    # way the view change in progress is the ViewChanger's to time.
    primary.view_changer._enter_view(1)
    assert primary.progress._seqno is None
    del sent[:]
    runtime.sim.run(until=bound + 1.0)   # the gather runs until 150
    assert sent.of(msg.Suspect) == []
    assert (primary.view, primary.in_view_change) == (1, True)


@T
def test_a_crash_forgets_the_watch_and_the_next_slot_arms_it_again(t):
    runtime, sent, primary, bound = cut_cluster(t)
    watch = primary.progress
    propose(runtime, primary)
    primary.crash()
    primary.recover()
    assert watch._seqno is None and not watch._timer.armed
    runtime.sim.run(until=bound + 1.0)
    assert suspected_views(sent) == []
    propose(runtime, primary)
    assert watch._seqno == 2
    assert watch._timer.deadline == runtime.sim.now + bound


def in_view(runtime, view):
    """Every replica in ``view``, installed (the wires stay cut)."""
    for replica in runtime.replicas:
        replica.view = view


def a_follower_goes_silent_after_voting(t, view, silent):
    """``view``'s primary orders slot 1, which every follower votes for
    and commits, then slot 2, whose prepare follower ``silent`` never
    gets: the survivors' watches run out on slot 2.  Returns ``(runtime,
    sent, the survivors)``."""
    runtime, sent, primary, bound = cut_cluster(t)
    in_view(runtime, view)
    groups = primary.groups
    assert groups.primary(view) == primary.replica_id
    others = [r for r in groups.followers(view) if r != silent]
    assert len(others) == t - 1
    propose(runtime, primary)
    prepares_reach_followers(runtime, sent)
    commit(runtime, sent, 1)
    assert all(1 in runtime.replica(r).commit_log
               for r in groups.group(view))
    propose(runtime, primary)
    sent[:] = [item for item in sent if item[1] != f"r{silent}"]
    prepares_reach_followers(runtime, sent)
    commit(runtime, sent, 2)
    survivors = [primary] + [runtime.replica(r) for r in others]
    assert all(2 not in r.commit_log for r in survivors)
    runtime.sim.run(until=bound + 1.0)
    return runtime, sent, survivors


def test_the_survivors_of_a_silent_t2_follower_skip_the_views_holding_it():
    """t = 2, view 2 = (0, 2, 3): r2 goes silent.  r0 holds r3's vote, r3
    the PREPARE: each heard another member, so both know r2 is the silent
    one and go straight past view 3 = (1, 2, 4) into view 4 = (0, 3, 4),
    with no VIEW-CHANGE for view 3."""
    runtime, sent, survivors = a_follower_goes_silent_after_voting(
        2, view=2, silent=2)
    groups = survivors[0].groups
    assert 2 in groups.group(3)
    assert [(r.view, r.in_view_change) for r in survivors] == [(4, True)] * 2
    assert 2 not in groups.group(4)
    assert suspected_views(sent) == [2]
    assert {m.new_view for _, m in sent.of(msg.ViewChange)} == {4}


def test_a_t1_primary_that_heard_nobody_moves_to_the_next_view():
    """t = 1, view 1 = (r0, r2): the primary's only evidence is the
    missing FastCommit, so it heard no other member for the slot and may
    be the one cut off -- view 2 = (r1, r2), though it holds r2, not the
    view 3 = (r0, r1) a skip would pick."""
    runtime, sent, survivors = a_follower_goes_silent_after_voting(
        1, view=1, silent=2)
    [primary] = survivors
    assert primary.groups.next_view_avoiding(1, [2]) == 3
    assert (primary.view, primary.in_view_change) == (2, True)
    assert suspected_views(sent) == [1]
