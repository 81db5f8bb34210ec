"""The VIEW-CHANGE campaign of PBFT, Zyzzyva and Zab (Paxos elects by
ballots and does not derive from it).

A suspecting replica broadcasts its protocol's VIEW-CHANGE for ``target =
max(view, last target) + 1`` carrying its recovery state; replicas that
see a campaign for a fresher view join it.  The leader of the target view
installs it on :meth:`CampaignReplica.view_change_quorum` of them, merges
the carried state (:meth:`CampaignReplica.install_view`, per protocol)
and announces the view with one :class:`NewView` (Zab's NEW-EPOCH: no
entries), which followers adopt through
:meth:`CampaignReplica.adopt_new_view`.

A subclass layer, not a component: every step reads and writes the
core's ``view``, ``sequencer`` and ``commit_log``, and the ordering
handlers read :attr:`CampaignReplica.campaigning` per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.protocols.base import BaselineReplica, SyncRequest, \
    register_modeled
from repro.sim.process import Timer
from repro.smr.messages import Batch


@register_modeled
@dataclass(frozen=True)
class NewView:
    """New leader -> all: ``view`` is installed with the merged history
    ``entries`` (``(seqno, batch)`` pairs; none from Zab)."""

    view: int
    sender: int
    executed_upto: int
    entries: Tuple[Tuple[int, Batch], ...]


class CampaignReplica(BaselineReplica):
    """A baseline replica that changes views by VIEW-CHANGE campaign.
    Subclasses register their VIEW-CHANGE class with
    :meth:`on_view_change_msg` and :class:`NewView` with their adoption
    handler, and implement the three hooks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._vc_gather_timer = Timer(self, self._on_vc_gather_timeout,
                                      "vc_gather")
        self._vc_msgs: Dict[int, Dict[int, Any]] = {}
        self._target_view = 0  # highest view this replica campaigned for
        self._gathering: Optional[int] = None

    # -- the three hooks --------------------------------------------------
    def make_view_change(self, target: int) -> Any:
        """This protocol's VIEW-CHANGE for ``target``, carrying whatever
        state the new leader's merge needs."""
        raise NotImplementedError

    def view_change_size(self, message: Any) -> int:
        """Wire size of a VIEW-CHANGE, the batches it embeds included."""
        raise NotImplementedError

    def install_view(self, target: int, msgs: Dict[int, Any]) -> None:
        """New-leader side: merge the quorum's VIEW-CHANGE state, announce
        the view, and resume ordering.  Runs with ``self.view == target``
        and protocol in-flight state already cleared."""
        raise NotImplementedError

    # -- the campaign -----------------------------------------------------
    def view_change_quorum(self) -> int:
        """VIEW-CHANGE messages needed to install a view: ``n - t``, that
        is 2t + 1 of 3t + 1 replicas and a majority of 2t + 1."""
        assert self.config.n is not None
        return self.config.n - self.config.t

    @property
    def campaigning(self) -> bool:
        """Between joining a campaign and its view installing.

        A frozen replica must stop proposing and stop accepting the old
        view's ordering messages: anything it speculatively adopted after
        reporting its state would be invisible to the new leader's merge
        and could be reassigned -- a total-order violation.
        """
        return self._target_view > self.view

    def may_propose(self) -> bool:
        return self.is_leader and not self.campaigning

    def suspect_view(self, view: int) -> None:
        """Campaign to replace the leader of ``view`` (also the hook the
        fault injector's ``suspect`` event calls)."""
        if view < self.view:
            return
        self._campaign(max(self.view, self._target_view) + 1)

    def _campaign(self, target: int) -> None:
        """Broadcast our VIEW-CHANGE for ``target`` and join its tally."""
        self._target_view = target
        self.elections_started += 1
        message = self.make_view_change(target)
        size = self.view_change_size(message)
        self.multicast_authenticated(self.other_replica_names(), message,
                                     size_bytes=size)
        self._note_view_change(self.replica_id, target, message)
        # If this campaign stalls (its leader may be down too), escalate
        # to the next view on expiry.
        self._election_timer.start(self.config.view_change_timeout_ms)

    def on_view_change_msg(self, src: str, m: Any) -> None:
        """Handler of each protocol's VIEW-CHANGE class: ``m.view`` is the
        target, ``m.sender`` whose state it carries."""
        target = m.view
        if target <= self.view:
            return
        if self._target_view < target:
            # A fresher campaign is under way: join it with our state.
            self._campaign(target)
        self._note_view_change(m.sender, target, m)

    def _note_view_change(self, sender: int, target: int,
                          message: Any) -> None:
        msgs = self._vc_msgs.setdefault(target, {})
        msgs[sender] = message
        if target <= self.view or self.leader_of(target) != self.replica_id:
            return
        assert self.config.n is not None
        if len(msgs) >= self.config.n:
            # Everyone reported: install immediately.
            self._vc_gather_timer.stop()
            self._gathering = None
            self._become_leader(target, dict(msgs))
        elif len(msgs) >= self.view_change_quorum() \
                and self._gathering != target:
            # Quorum reached: give stragglers -- above all the deposed
            # leader, whose log may hold slots it executed speculatively
            # that nobody else reported -- one Delta to contribute their
            # state before installing without them.
            self._gathering = target
            self._vc_gather_timer.start(self.config.delta_ms)

    def _on_vc_gather_timeout(self) -> None:
        target, self._gathering = self._gathering, None
        if target is None or target <= self.view:
            return
        msgs = self._vc_msgs.get(target, {})
        if len(msgs) >= self.view_change_quorum():
            self._become_leader(target, dict(msgs))

    def _become_leader(self, target: int, msgs: Dict[int, Any]) -> None:
        # ``target`` is fresher than our view and we lead it: entering it
        # forwards nothing.
        self.enter_view(target)
        self.install_view(target, msgs)
        # Slots the install step re-proposed are carried state; they must
        # not count against the new leader's pipeline window.
        self.sequencer.carry_over()
        self.sequencer.kick()

    def enter_view(self, view: int) -> None:
        super().enter_view(view)
        # Tallies for views no longer ahead are settled.
        self._vc_msgs = {v: m for v, m in self._vc_msgs.items()
                         if v > self.view}

    # -- announcing and adopting a view -----------------------------------
    def announce_view(self, merged: Dict[int, Batch],
                      header_bytes: int) -> NewView:
        """Adopt and execute the ``merged`` history, then announce it."""
        entries = tuple(sorted(merged.items()))
        self.log_entries(entries, self.view)
        self.execute_ready()
        announcement = NewView(self.view, self.replica_id, self.ex, entries)
        size = sum(b.size_bytes for b in merged.values()) + header_bytes
        self.multicast_authenticated(self.other_replica_names(),
                                     announcement, size_bytes=size)
        return announcement

    def adopt_new_view(self, src: str, m: NewView, mac_bytes: int) -> bool:
        """Follower side of a :class:`NewView` from the leader of a view
        not stale: charge the MAC, log the entries, enter the view.
        Returns whether it was adopted; the caller executes and syncs."""
        if m.view < self.view or src != f"r{self.leader_of(m.view)}":
            return False
        self.cpu.charge_mac(mac_bytes)
        self.log_entries(m.entries, m.view)
        self.enter_view(m.view)
        return True

    def follow_proposer(self, src: str, view: int) -> None:
        """A fresher view's leader proposing means its view change
        completed (the NEW-VIEW may still be in flight): enter it."""
        if view > self.view and src == f"r{self.leader_of(view)}":
            self.enter_view(view)

    # -- catch-up ---------------------------------------------------------
    def _on_sync_request(self, src: str, m: SyncRequest) -> None:
        super()._on_sync_request(src, m)
        if self.campaigning:
            # The requester may have missed our campaign (it was down or
            # behind): hand it our VIEW-CHANGE, so it joins now instead of
            # when the campaign next escalates.
            own = self._vc_msgs.get(self._target_view, {}).get(
                self.replica_id)
            if own is not None:
                self.send_authenticated(f"r{m.sender}", own,
                                        size_bytes=self.view_change_size(own))
