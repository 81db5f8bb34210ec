"""Component-level tests for :class:`LazyReplicator` (Section 4.5.2),
driven directly on one replica of a cluster whose wires are cut.  (What a
FETCH-REPLY's checkpoint may do, and fetching end to end across a crash,
are in ``test_state_retrieval.py``.)"""

import pytest

from repro.protocols.xpaxos import messages as msg
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch, Request
from tests.conftest import isolate, make_cluster

T = pytest.mark.parametrize("t", [1, 2])


def entry(runtime, seqno, view=0):
    batch = Batch((Request(op=seqno, timestamp=seqno, client=0),))
    return CommitEntry(seqno, view, batch,
                       (runtime.keystore.sign("r0", ("slot", seqno)),))


@T
def test_whom_a_follower_replicates_to_is_fixed_by_t(t):
    """t = 1: the follower serves every passive replica.  t >= 2: each
    follower serves the passive replica at its own position, so a slot
    reaches each passive replica once."""
    runtime = make_cluster(t=t)
    sent = isolate(runtime)
    groups = runtime.replica(0).groups
    slot = entry(runtime, 1)
    for follower in groups.followers(0):
        runtime.replica(follower).lazy.replicate(slot)
    lazy = sent.of(msg.LazyCommit)
    assert sorted(dst for dst, _ in lazy) == \
        [f"r{r}" for r in groups.passive(0)]
    assert all(m.entry is slot and m.view == 0 for _, m in lazy)


@T
def test_no_lazy_sender_without_lazy_replication(t):
    runtime = make_cluster(t=t, use_lazy_replication=False)
    sent = isolate(runtime)
    for follower in runtime.replica(0).groups.followers(0):
        runtime.replica(follower).lazy.replicate(entry(runtime, 1))
    assert sent == []


def test_in_order_lazy_commits_execute_without_a_fetch():
    runtime = make_cluster(t=1)
    sent = isolate(runtime)
    passive = runtime.replica(2)
    for seqno in (1, 2, 3):
        passive.on_message("r1", msg.LazyCommit(0, seqno,
                                                entry(runtime, seqno)))
    assert passive.ex == 3 and sent == []
    # A duplicate, or one at or below ``ex``, is not filed again.
    passive.on_message("r1", msg.LazyCommit(0, 2, entry(runtime, 2)))
    assert len(passive.commit_log) == 3


def test_a_hole_sends_exactly_one_fetch_until_reply_or_timeout():
    runtime = make_cluster(t=1)
    sent = isolate(runtime)
    passive = runtime.replica(2)
    lazy, delta = passive.lazy, runtime.config.delta_ms

    def fetches():
        return [(dst, m.from_seqno, m.to_seqno)
                for dst, m in sent.of(msg.FetchEntries)]

    passive.on_message("r1", msg.LazyCommit(0, 4, entry(runtime, 4)))
    assert fetches() == [("r0", 1, 3), ("r1", 1, 3)]
    # More lazy traffic above the hole: no second fetch while one is out.
    passive.on_message("r1", msg.LazyCommit(0, 5, entry(runtime, 5)))
    assert len(fetches()) == 2 and passive.ex == 0
    # The reply fills the hole and re-opens the gate.
    passive.on_message("r0", msg.FetchReply(
        tuple(entry(runtime, sn) for sn in (1, 2, 3)), None))
    assert passive.ex == 5 and not lazy._fetch_pending
    passive.on_message("r1", msg.LazyCommit(0, 8, entry(runtime, 8)))
    assert fetches()[2:] == [("r0", 6, 7), ("r1", 6, 7)]
    # This reply is lost: the 2-Delta window re-opens the gate instead.
    passive.on_message("r1", msg.LazyCommit(0, 9, entry(runtime, 9)))
    assert len(fetches()) == 4
    runtime.sim.run(until=runtime.sim.now + 2 * delta + 1.0)
    passive.on_message("r1", msg.LazyCommit(0, 10, entry(runtime, 10)))
    assert fetches()[4:] == [("r0", 6, 9), ("r1", 6, 9)]


def test_a_crash_swallows_the_fetch_windows_end():
    runtime = make_cluster(t=1)
    isolate(runtime)
    passive = runtime.replica(2)
    lazy, delta = passive.lazy, runtime.config.delta_ms
    passive.on_message("r1", msg.LazyCommit(0, 4, entry(runtime, 4)))
    assert lazy._fetch_pending
    passive.crash()
    runtime.sim.run(until=runtime.sim.now + 2 * delta + 1.0)
    # Down, the replica never sees its window close; recovery says so.
    assert lazy._fetch_pending
    passive.recover()
    assert not lazy._fetch_pending


def test_an_active_replica_serves_a_fetch_from_its_log_and_checkpoint():
    runtime = make_cluster(t=1)
    sent = isolate(runtime)
    primary = runtime.replica(0)
    for seqno in (3, 4, 6):
        primary.commit_log.put(seqno, entry(runtime, seqno))
    primary.on_message("r2", msg.FetchEntries(1, 5, 2))
    (dst, reply), = sent.of(msg.FetchReply)
    assert dst == "r2" and [e.seqno for e in reply.entries] == [3, 4]
    assert reply.checkpoint is primary.stable_checkpoint


def test_lazy_traffic_ends_a_passive_replicas_view_change():
    """A replica passive in the view it entered never sees the NEW-VIEW;
    a LAZY-COMMIT of that view is its evidence, and stops its VIEW-CHANGE
    retransmission."""
    runtime = make_cluster(t=1)
    isolate(runtime)
    passive = runtime.replica(1)  # passive in view 1 = (r0, r2)
    changer = passive.view_changer
    changer._enter_view(1)
    assert passive.in_view_change and changer._vc_retx_timer.armed
    passive.on_message("r2", msg.LazyCommit(1, 1, entry(runtime, 1, view=1)))
    assert not passive.in_view_change and not changer._vc_retx_timer.armed
    assert passive.ex == 1
