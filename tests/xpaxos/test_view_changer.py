"""Component-level tests for :class:`ViewChanger` (Algorithm 3 and the
fault-detection hand-off), driven directly on one replica of a cluster
whose wires are cut: the test speaks for the peers."""

import pytest

from repro.crypto.primitives import digest_of
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.detection import FaultDetector
from tests.conftest import isolate, make_cluster

T = pytest.mark.parametrize("t", [1, 2])
FD = pytest.mark.parametrize("fd", [False, True], ids=["no-fd", "fd"])


def entering_view_one(t, **overrides):
    """``(runtime, sent, the primary of view 1 a moment after it entered
    that view)``: its own VIEW-CHANGE filed, both timers running."""
    runtime = make_cluster(t=t, **overrides)
    sent = isolate(runtime)
    replica = runtime.replica(runtime.replica(0).groups.primary(1))
    replica.view_changer._enter_view(1)
    return runtime, sent, replica


def peers_of(runtime, replica):
    """Every other replica's id, in id order."""
    return [r for r in range(runtime.config.n) if r != replica.replica_id]


def hear(runtime, replica, peers):
    """Genuine VIEW-CHANGEs for view 1 from ``peers`` reach ``replica``."""
    for peer in peers:
        vc = runtime.replica(peer).view_changer.build_view_change(1)
        replica.view_changer._on_view_change(f"r{peer}", vc)


@T
def test_entering_a_view_stops_ordering_and_sends_one_view_change(t):
    runtime, sent, replica = entering_view_one(t)
    assert (replica.view, replica.in_view_change) == (1, True)
    assert not replica.may_propose()
    others = [f"r{r}" for r in replica.groups.group(1)
              if r != replica.replica_id]
    assert [dst for dst, _ in sent.of(msg.ViewChange)] == others
    changer = replica.view_changer
    assert list(changer._state.vcset) == [replica.replica_id]
    assert changer._net_timer.armed and changer._vc_timer.armed


@T
def test_vc_final_goes_out_at_n_without_waiting_for_the_timer(t):
    runtime, sent, replica = entering_view_one(t)
    changer, n = replica.view_changer, runtime.config.n
    hear(runtime, replica, peers_of(runtime, replica)[:-1])
    assert sent.of(msg.VcFinal) == []
    last = runtime.replica(peers_of(runtime, replica)[-1]) \
        .view_changer.build_view_change(1)
    changer._on_view_change(f"r{last.sender}", last)
    finals = sent.of(msg.VcFinal)
    assert len(finals) == t  # one per other active replica
    assert [vc.sender for vc in finals[0][1].vcset] == list(range(n))
    assert not changer._net_timer.armed
    # Once: a straggler's duplicate changes nothing.
    changer._on_view_change(f"r{last.sender}", last)
    assert len(sent.of(msg.VcFinal)) == t


def run_to_two_delta(runtime, sent):
    """Run to the end of the 2-Delta gather of a view entered now; a tick
    before it nothing had been decided."""
    delta = runtime.config.delta_ms
    runtime.sim.run(until=runtime.sim.now + 2 * delta - 1.0)
    assert sent.of(msg.VcFinal) == [] and sent.of(msg.Suspect) == []
    runtime.sim.run(until=runtime.sim.now + 2.0)


@T
@FD
def test_vc_final_at_n_minus_t_only_after_the_two_delta_timer(t, fd):
    """Every member of the group heard, a non-member silent: at 2-Delta
    VC-FINAL goes out with what is held (n = 2t + 1, so the t + 1 members
    alone are already n - t)."""
    runtime, sent, replica = entering_view_one(t, use_fault_detection=fd)
    changer, config = replica.view_changer, runtime.config
    group = replica.groups.group(1)
    silent = max(r for r in range(config.n) if r not in group)
    hear(runtime, replica,
         [r for r in peers_of(runtime, replica) if r != silent])
    assert len(changer._state.vcset) == config.n - 1 >= config.n - config.t
    run_to_two_delta(runtime, sent)
    finals = sent.of(msg.VcFinal)
    assert len(finals) == t
    assert [vc.sender for vc in finals[0][1].vcset] \
        == [r for r in range(config.n) if r != silent]
    assert set(group) <= {vc.sender for vc in finals[0][1].vcset}
    assert sent.of(msg.Suspect) == []
    assert (replica.view, replica.in_view_change) == (1, True)


#: Where the replica goes from view 1 at 2-Delta: too few heard to tell
#: who is cut off (v + 1), or t + 1 heard and the silent follower of view
#: 1 skipped -- t = 1: view 2 = (r1, r2) holds it, view 3 = (r0, r1) not;
#: t = 2: view 2 = (0, 2, 3) already leaves r4 out.
ABANDONED_TO = {("fewer-than-n-minus-t", 1): 2, ("fewer-than-n-minus-t", 2): 2,
                ("all-but-one-member", 1): 3, ("all-but-one-member", 2): 2}


@T
@FD
@pytest.mark.parametrize("heard", ["fewer-than-n-minus-t",
                                   "all-but-one-member"])
def test_a_member_silent_at_two_delta_abandons_the_view(t, fd, heard):
    """A group of t + 1 needs every member, and a correct, synchronous
    member's VIEW-CHANGE arrives within 2-Delta: fewer than n - t at
    2-Delta means a member is silent, and so may n - 1.  Either way the
    view is suspected then and there, with no VC-FINAL for it.  With
    t + 1 VIEW-CHANGEs in hand the replica knows who is silent and enters
    the first later view whose group leaves that member out; with fewer
    it may be the one cut off, and enters v + 1."""
    runtime, sent, replica = entering_view_one(t, use_fault_detection=fd)
    changer, config, groups = replica.view_changer, runtime.config, \
        replica.groups
    silent = groups.followers(1)[-1]
    if heard == "fewer-than-n-minus-t":
        peers = peers_of(runtime, replica)[:config.n - config.t - 2]
        assert silent not in peers
    else:
        peers = [r for r in peers_of(runtime, replica) if r != silent]
    hear(runtime, replica, peers)
    gathered = changer._state
    assert len(gathered.vcset) == len(peers) + 1
    run_to_two_delta(runtime, sent)
    suspects = sent.of(msg.Suspect)
    assert [dst for dst, _ in suspects] \
        == [f"r{r}" for r in peers_of(runtime, replica)]
    assert {(m.view, m.sender) for _, m in suspects} \
        == {(1, replica.replica_id)}
    target = ABANDONED_TO[heard, t]
    if heard == "all-but-one-member":
        assert target == groups.next_view_avoiding(1, [silent])
        assert silent not in groups.group(target)
    assert (replica.view, replica.in_view_change) == (target, True)
    fresh = changer._state
    assert fresh is not gathered and not fresh.sent_vc_final
    # Straight into the target: no VIEW-CHANGE for a view skipped.
    assert {m.new_view for _, m in sent.of(msg.ViewChange)} == {1, target}
    assert [dst for dst, m in sent.of(msg.ViewChange)
            if m.new_view == target] \
        == [f"r{r}" for r in groups.group(target)
            if r != replica.replica_id]
    # The silent member's VIEW-CHANGE for the abandoned view arrives late:
    # filed nowhere, and no VC-FINAL for view 1 was or will be sent.
    before = dict(fresh.vcset)
    late = runtime.replica(silent).view_changer.build_view_change(1)
    changer._on_view_change(f"r{silent}", late)
    assert fresh.vcset == before and silent not in gathered.vcset
    runtime.sim.run(until=runtime.sim.now + config.view_change_timeout_ms)
    assert sent.of(msg.VcFinal) == []


@T
def test_a_gather_that_heard_only_itself_moves_to_the_next_view(t):
    """The guard: a replica that heard no VIEW-CHANGE but its own sees
    every other member silent, and may be the one cut off.  It enters
    v + 1, not the far view a skip past all of them would pick -- a
    cut-off replica that skipped would drag the cluster after it once
    healed."""
    runtime, sent, replica = entering_view_one(t)
    groups = replica.groups
    silent = [r for r in groups.group(1) if r != replica.replica_id]
    assert groups.next_view_avoiding(1, silent) > 2
    run_to_two_delta(runtime, sent)
    assert {(m.view, m.sender) for _, m in sent.of(msg.Suspect)} \
        == {(1, replica.replica_id)}
    assert (replica.view, replica.in_view_change) == (2, True)


@T
@FD
def test_a_member_silent_after_its_view_change_is_left_to_timer_vc(t, fd):
    """What the gather cannot see: every member sent its VIEW-CHANGE, so
    2-Delta ends in VC-FINAL -- and then a member never sends its own.
    Only ``timer_vc`` suspects that view, and not before it fires."""
    runtime, sent, replica = entering_view_one(t, use_fault_detection=fd)
    config = runtime.config
    entered = runtime.sim.now
    hear(runtime, replica, replica.groups.followers(1))
    run_to_two_delta(runtime, sent)
    assert len(sent.of(msg.VcFinal)) == t
    runtime.sim.run(until=entered + config.view_change_timeout_ms - 1.0)
    assert sent.of(msg.Suspect) == []
    assert (replica.view, replica.in_view_change) == (1, True)
    runtime.sim.run(until=runtime.sim.now + 2.0)
    assert {(m.view, m.sender) for _, m in sent.of(msg.Suspect)} \
        == {(1, replica.replica_id)}
    assert replica.view == 2


@T
@FD
def test_a_passive_replica_never_suspects_at_two_delta(t, fd):
    """Only an active replica of v may suspect v: a replica passive in
    the view it enters gathers nothing and decides nothing at 2-Delta,
    even with the gather timer of the view before still running."""
    runtime, sent, replica = entering_view_one(t, use_fault_detection=fd)
    changer, config = replica.view_changer, runtime.config
    assert not replica.groups.is_active(2, replica.replica_id)
    changer._enter_view(2)
    bystander = runtime.replica(next(
        r for r in range(config.n) if r not in replica.groups.group(1)))
    bystander.view_changer._enter_view(1)
    assert not bystander.view_changer._net_timer.armed
    runtime.sim.run(until=runtime.sim.now + 2 * config.delta_ms + 1.0)
    assert sent.of(msg.Suspect) == [] and sent.of(msg.VcFinal) == []
    assert (replica.view, bystander.view) == (2, 1)
    assert changer._state.vcset == {}


@T
def test_the_view_change_in_progress_is_one_value(t):
    """Entering the next view drops what was gathered for the last one,
    and a message for a view other than the one being installed is not
    filed anywhere."""
    runtime, sent, replica = entering_view_one(t)
    changer = replica.view_changer
    hear(runtime, replica, peers_of(runtime, replica)[:1])
    gathered = changer._state
    assert len(gathered.vcset) == 2
    peer = peers_of(runtime, replica)[0]
    stale = runtime.replica(peer).view_changer.build_view_change(1)
    changer._enter_view(2)
    assert changer._state is not gathered
    before = dict(changer._state.vcset)
    changer._on_view_change(f"r{peer}", stale)
    assert changer._state.vcset == before and len(gathered.vcset) == 2
    assert replica.retained()["view_change_entries"] == 0


def all_vc_finals_in(t, **overrides):
    """The primary of view 1 with every active replica's VC-FINAL
    over the same full VCSet filed; returns what it sent because of the
    last one."""
    runtime, sent, replica = entering_view_one(t, **overrides)
    changer, n = replica.view_changer, runtime.config.n
    hear(runtime, replica, peers_of(runtime, replica))
    vcset = sent.of(msg.VcFinal)[0][1].vcset
    del sent[:]
    for peer in replica.groups.followers(1):
        changer._on_vc_final(f"r{peer}", msg.VcFinal.signed(
            runtime.replica(peer).sign, new_view=1, sender=peer,
            vcset=vcset, vcset_digest=digest_of(vcset)))
    return runtime, sent, replica


@T
def test_without_fault_detection_the_primary_goes_straight_to_new_view(t):
    runtime, sent, replica = all_vc_finals_in(t)
    changer = replica.view_changer
    assert changer.detector is None
    assert msg.VcConfirm not in replica._handlers
    assert msg.FaultAccusation not in replica._handlers
    assert sent.of(msg.VcConfirm) == []
    assert len(sent.of(msg.NewView)) == t
    assert (replica.view_changes_completed, replica.in_view_change) \
        == (1, False)
    assert not changer._vc_timer.armed


@T
def test_with_fault_detection_vc_confirms_come_first(t):
    runtime, sent, replica = all_vc_finals_in(t, use_fault_detection=True)
    changer = replica.view_changer
    assert isinstance(changer.detector, FaultDetector)
    confirms = sent.of(msg.VcConfirm)
    assert len(confirms) == t and sent.of(msg.NewView) == []
    assert replica.in_view_change
    digest = confirms[0][1].vcset_digest
    for peer in replica.groups.followers(1):
        replica.on_message(f"r{peer}", msg.VcConfirm.signed(
            runtime.replica(peer).sign, new_view=1, sender=peer,
            vcset_digest=digest))
    assert len(sent.of(msg.NewView)) == t
    assert len(changer.final_proofs[1]) == t + 1
    assert not replica.in_view_change


def test_a_follower_checks_the_new_view_against_its_own_selection():
    """The primary's NEW-VIEW must offer what the follower selected from
    the same VCSet: an empty one, here."""
    runtime = make_cluster(t=1)
    sent = isolate(runtime)
    follower = runtime.replica(2)  # follower of view 1 = (r0, r2)
    changer = follower.view_changer
    changer._enter_view(1)
    for r in (0, 1):
        vc = runtime.replica(r).view_changer.build_view_change(1)
        changer._on_view_change(f"r{r}", vc)
    vcset = sent.of(msg.VcFinal)[0][1].vcset
    changer._on_vc_final("r0", msg.VcFinal.signed(
        runtime.replica(0).sign, new_view=1, sender=0, vcset=vcset,
        vcset_digest=digest_of(vcset)))
    assert changer._state.selection is not None
    assert len(changer._state.selection) == 0
    follower.on_message("r0", msg.NewView.signed(
        runtime.replica(0).sign, new_view=1, entries=(), checkpoint=None))
    assert (follower.view, follower.in_view_change) == (1, False)
    assert follower.view_changes_completed == 1
