"""Component-level tests for :class:`ViewChanger` (Algorithm 3 and the
fault-detection hand-off), driven directly on one replica of a cluster
whose wires are cut: the test speaks for the peers."""

import pytest

from repro.crypto.primitives import digest_of
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.detection import FaultDetector
from tests.conftest import isolate, make_cluster

T = pytest.mark.parametrize("t", [1, 2])


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


def peer_view_changes(runtime, replica, count):
    """Genuine VIEW-CHANGEs for view 1 from ``count`` peers of ``replica``."""
    return [runtime.replica(r).view_changer.build_view_change(1)
            for r in peers_of(runtime, replica)[:count]]


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
    for vc in peer_view_changes(runtime, replica, n - 2):
        changer._on_view_change(f"r{vc.sender}", vc)
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


@T
def test_vc_final_at_n_minus_t_only_after_the_two_delta_timer(t):
    runtime, sent, replica = entering_view_one(t)
    changer, config = replica.view_changer, runtime.config
    for vc in peer_view_changes(runtime, replica,
                                config.n - config.t - 1):
        changer._on_view_change(f"r{vc.sender}", vc)
    assert len(changer._state.vcset) == config.n - config.t
    runtime.sim.run(until=runtime.sim.now + 2 * config.delta_ms - 1.0)
    assert sent.of(msg.VcFinal) == []
    runtime.sim.run(until=runtime.sim.now + 2.0)
    finals = sent.of(msg.VcFinal)
    assert len(finals) == t
    assert len(finals[0][1].vcset) == config.n - config.t


@T
def test_fewer_than_n_minus_t_never_suffice(t):
    runtime, sent, replica = entering_view_one(t)
    changer, config = replica.view_changer, runtime.config
    for vc in peer_view_changes(runtime, replica,
                                config.n - config.t - 2):
        changer._on_view_change(f"r{vc.sender}", vc)
    runtime.sim.run(until=runtime.sim.now + 2 * config.delta_ms + 1.0)
    assert changer._state.net_timer_expired
    assert sent.of(msg.VcFinal) == []
    # The one that was missing arrives late: now it is n - t, timer long
    # expired.
    late = runtime.replica(peers_of(runtime, replica)[-1]) \
        .view_changer.build_view_change(1)
    changer._on_view_change(f"r{late.sender}", late)
    assert len(sent.of(msg.VcFinal)) == t


@T
def test_the_view_change_in_progress_is_one_value(t):
    """Entering the next view drops what was gathered for the last one,
    and a message for a view other than the one being installed is not
    filed anywhere."""
    runtime, sent, replica = entering_view_one(t)
    changer = replica.view_changer
    for vc in peer_view_changes(runtime, replica, 1):
        changer._on_view_change(f"r{vc.sender}", vc)
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
    for vc in peer_view_changes(runtime, replica, n - 1):
        changer._on_view_change(f"r{vc.sender}", vc)
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
