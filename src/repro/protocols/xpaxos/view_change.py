"""View change (Section 4.3, Algorithm 3) with the fault-detection
insertion point (Algorithm 5).

:class:`ViewChanger` is handed the replica and owns everything only a
view change uses: the views suspected, the one view change in progress,
the three timers and, with fault detection, the :class:`FaultDetector`,
the ``FinalProof``s and two more handlers.  It moves the replica between
views through ``leave_view`` / ``start_view`` and re-commits the selected
slots through ``commit_log`` / ``prepare_log`` / ``execute_ready``.

What ends the gather of a replica installing view v: all n VIEW-CHANGEs
(VC-FINAL at once); 2 Delta with every member of sg_v heard (VC-FINAL with
what is held -- a group is exactly n - t replicas, so Algorithm 3's count
is implied); 2 Delta with a member silent (``suspect_view(v)``: a group
of t + 1 needs every member, and a correct, synchronous one would have
been heard, so v cannot form and costs its gather, not ``timer_vc``;
the silent members are skipped, ``SynchronousGroups`` says when).
``timer_vc`` keeps what the gather cannot see: a member that sent its
VIEW-CHANGE and then fell silent, a NEW-VIEW that never comes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Dict, Optional, Set, Tuple

from repro.crypto.primitives import digest_of
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.detection import FaultDetector
from repro.protocols.xpaxos.selection import select_state
from repro.protocols.xpaxos.signed import verify_signed
from repro.sim.process import Timer
from repro.smr.log import CommitEntry, CommitLog, PrepareEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.xpaxos.replica import XPaxosReplica


@dataclass
class _ViewChangeState:
    """What this replica has gathered for the view it is installing.
    Entering the next view replaces it whole."""

    vcset: Dict[int, msg.ViewChange] = field(default_factory=dict)
    vc_finals: Dict[int, msg.VcFinal] = field(default_factory=dict)
    vc_confirms: Dict[int, msg.VcConfirm] = field(default_factory=dict)
    sent_vc_final: bool = False
    #: Our own selection, for a follower to cross-check the primary's
    #: NEW-VIEW against.
    selection: Optional[CommitLog] = None
    processed_new_view: bool = False


class ViewChanger:
    """Suspicion, Algorithm 3, and the FD hand-off, for one replica."""

    def __init__(self, replica: "XPaxosReplica") -> None:
        self.replica = replica
        self.groups = replica.groups
        self._suspected_views: Set[int] = set()
        self._forwarded_suspects: Set[tuple] = set()
        #: The view change in progress (None until the first one).
        self._state: Optional[_ViewChangeState] = None
        self.prepare_view = 0   # view in which prepare_log was generated (FD)
        self.final_proofs: Dict[int, Tuple] = {}
        self._net_timer = Timer(replica, self._on_net_timer, "timer_net")
        self._vc_timer = Timer(replica, self._on_vc_timer, "timer_vc")
        self._vc_retx_timer = Timer(replica, self._on_vc_retransmit,
                                    "timer_vc_retx")
        # The class the new primary signs its re-proposals as.
        self._ordering = msg.FastPrepare if replica.config.t == 1 \
            else msg.Prepare
        replica._handlers.update({
            msg.Suspect: self._on_suspect,
            msg.ViewChange: self._on_view_change,
            msg.VcFinal: self._on_vc_final,
            msg.NewView: self._on_new_view,
        })
        # Where Algorithm 3 goes once every active replica's VC-FINAL is
        # in: straight to the selection, or through Algorithm 5 first.
        self.detector: Optional[FaultDetector] = None
        self._vc_finals_complete = self._finish_view_change
        if replica.config.use_fault_detection:
            self.detector = FaultDetector(replica)
            self._vc_finals_complete = self._run_fault_detection
            replica._handlers.update({
                msg.VcConfirm: self._on_vc_confirm,
                msg.FaultAccusation: self.detector.on_accusation,
            })

    def recovered(self) -> None:
        """Forgets nothing: a replica that crashes mid-change resumes it
        with what it had gathered (docs/execution.md says why)."""

    # ------------------------------------------------------------------
    # Suspicion (Section 4.3.2)
    # ------------------------------------------------------------------
    def suspect_view(self, view: int, silent: Collection[int] = ()) -> None:
        """Initiate a view change for ``view``: SUSPECT, then enter the
        first later view whose group holds none of ``silent``, members of
        sg_view this replica could not hear (``SynchronousGroups``)."""
        replica = self.replica
        if view != replica.view or view in self._suspected_views:
            return
        if not self.groups.is_active(view, replica.replica_id):
            return  # only active replicas may initiate
        self._suspected_views.add(view)
        suspect = msg.Suspect.signed(replica.sign, view=view,
                                     sender=replica.replica_id)
        replica.multicast_authenticated(replica.other_replica_names(),
                                        suspect, size_bytes=48)
        self._enter_view(self.groups.next_view_avoiding(view, silent))

    def _on_suspect(self, src: str, m: msg.Suspect) -> None:
        replica = self.replica
        if not self.groups.is_active(m.view, m.sender):
            return  # only active replicas of that view may suspect it
        if not verify_signed(replica, m):
            return
        key = (m.view, m.sender)
        if key not in self._forwarded_suspects:
            self._forwarded_suspects.add(key)
            replica.multicast_authenticated(
                [n for n in replica.all_replica_names()
                 if n != replica.name and n != src],
                m, size_bytes=48)
        self._advance_to(m.view + 1)

    def _advance_to(self, view: int) -> None:
        """Enter each view up to ``view`` in order (Algorithm 3 lines
        6-7): a SUSPECT or VIEW-CHANGE for a future view implies its
        initiators suspected everything before it."""
        while self.replica.view < view:
            self._enter_view(self.replica.view + 1)

    def _on_vc_timer(self) -> None:
        """The view change did not complete in time (Section 4.3.2 (iii))."""
        if self.replica.in_view_change:
            self._suspected_views.discard(self.replica.view)
            self.suspect_view(self.replica.view)

    # ------------------------------------------------------------------
    # VIEW-CHANGE and VC-FINAL (Algorithm 3 lines 6-17)
    # ------------------------------------------------------------------
    def _enter_view(self, new_view: int) -> None:
        """Stop the old view and send our VIEW-CHANGE to the new actives."""
        replica = self.replica
        replica.leave_view(new_view)
        self._state = state = _ViewChangeState()
        vc = self.build_view_change(new_view)
        replica._fanout_with_self(
            replica._active_names(), vc, vc.wire_size(),
            lambda: self._record_view_change(state, vc))
        if self.groups.is_active(new_view, replica.replica_id):
            self._net_timer.start(2 * replica.config.delta_ms)
            self._vc_timer.start(replica.config.view_change_timeout_ms)
        else:
            # Passive in the new view: re-send our VIEW-CHANGE until the
            # change is observed complete (see _on_vc_retransmit).
            self._vc_retx_timer.start(replica.config.view_change_timeout_ms)

    def _on_vc_retransmit(self) -> None:
        """Reliable-channel emulation: the paper assumes a VIEW-CHANGE
        sent while its receiver is down is retransmitted until received.
        The simulator sends once, so a replica that is the sole holder of
        a committed entry (e.g. the survivor of overlapping crashes)
        could have its log silently excluded from the n - t VCSet --
        losing committed state outside anarchy (the Appendix A pattern
        without any non-crash fault).  Active replicas already escalate
        through their view-change timer; the passive replica of the
        pending view (which has no timer) re-sends its VIEW-CHANGE on the
        same cadence until the change is observed complete."""
        replica = self.replica
        if not replica.in_view_change \
                or self.groups.is_active(replica.view, replica.replica_id):
            return
        vc = self.build_view_change(replica.view)
        replica.multicast_authenticated(replica._active_names(), vc,
                                        size_bytes=vc.wire_size())
        self._vc_retx_timer.start(replica.config.view_change_timeout_ms)

    def saw_lazy_commit(self, view: int) -> None:
        """What lazy traffic of ``view`` tells a passive replica."""
        replica = self.replica
        # A passive replica that entered a view it is not active in never
        # receives the NEW-VIEW; lazy traffic at or above that view is its
        # evidence that the change completed.
        if (view >= replica.view and replica.in_view_change
                and not self.groups.is_active(replica.view,
                                              replica.replica_id)):
            replica.in_view_change = False
            self._vc_retx_timer.stop()
        # Lazy traffic from a newer view tells a (recovered) passive
        # replica that a view change completed while it was away: adopt
        # the view number so later suspicions reference the right view.
        if (view > replica.view and not replica.in_view_change
                and not self.groups.is_active(view, replica.replica_id)):
            replica.view = view

    def build_view_change(self, new_view: int) -> msg.ViewChange:
        """This replica's VIEW-CHANGE for ``new_view``, from its live
        logs (and through its adversary, if one is attached)."""
        replica = self.replica
        prepare_entries = None
        final_proof = None
        if self.detector is not None:
            prepare_entries = tuple(replica.prepare_log.items())
            final_proof = self.final_proofs.get(self.prepare_view)
        vc = msg.ViewChange.signed(
            replica.sign, new_view=new_view, sender=replica.replica_id,
            commit_entries=tuple(replica.commit_log.items()),
            checkpoint=replica.stable_checkpoint,
            prepare_entries=prepare_entries,
            prepare_view=self.prepare_view,
            final_proof=final_proof)
        if replica.byzantine is not None:
            vc = replica.byzantine.mutate_view_change(replica, vc)
        return vc

    def _state_for(self, new_view: int) -> Optional[_ViewChangeState]:
        """The admission gate of every view-change message: the view
        change in progress if it installs ``new_view`` and this replica
        is active in it, else None."""
        replica = self.replica
        if new_view != replica.view \
                or not self.groups.is_active(new_view, replica.replica_id):
            return None
        return self._state

    def _on_view_change(self, src: str, m: msg.ViewChange) -> None:
        replica = self.replica
        if m.new_view < replica.view or not verify_signed(replica, m):
            return
        self._advance_to(m.new_view)
        state = self._state_for(m.new_view)
        if state is not None:
            self._record_view_change(state, m)

    def _record_view_change(self, state: _ViewChangeState,
                            m: msg.ViewChange) -> None:
        # First message per sender wins: retransmissions rebuild the
        # message from live state, and actives must select from the same
        # VCSet or the NEW-VIEW cross-check would mis-fire.
        state.vcset.setdefault(m.sender, m)
        if len(state.vcset) == self.replica.config.n:
            self._send_vc_final(state)

    def _on_net_timer(self) -> None:
        """The end of the 2-Delta gather (Algorithm 3 line 13): VC-FINAL
        if every member of the group was heard, else this view can never
        collect its VC-FINALs and is suspected now (module docstring)."""
        state = self._state
        assert state is not None  # armed by _enter_view only
        view = self.replica.view
        silent = [m for m in self.groups.group(view) if m not in state.vcset]
        if not silent:
            self._send_vc_final(state)
        elif len(state.vcset) > self.replica.config.t:
            self.suspect_view(view, silent)
        else:  # t + 1 not heard: this replica may be the one cut off
            self.suspect_view(view)

    def _send_vc_final(self, state: _ViewChangeState) -> None:
        if state.sent_vc_final:
            return
        replica = self.replica
        state.sent_vc_final = True
        self._net_timer.stop()
        vcset = tuple(sorted(state.vcset.values(), key=lambda v: v.sender))
        final = msg.VcFinal.signed(
            replica.sign, new_view=replica.view, sender=replica.replica_id,
            vcset=vcset, vcset_digest=digest_of(vcset))
        replica._fanout_with_self(
            replica._active_names(), final, 256,
            lambda: self._record_vc_final(state, final))

    def _on_vc_final(self, src: str, m: msg.VcFinal) -> None:
        replica = self.replica
        state = self._state_for(m.new_view)
        if state is None or m.sender not in self.groups.group(m.new_view):
            return
        if not verify_signed(replica, m) \
                or digest_of(m.vcset) != m.vcset_digest:
            return
        # Nothing is merged unless every piggybacked VIEW-CHANGE is one
        # its sender signed for this view; the ones we already hold as
        # the very same object were checked on arrival.
        for vc in m.vcset:
            if vc.new_view != m.new_view or (
                    state.vcset.get(vc.sender) is not vc
                    and not verify_signed(replica, vc)):
                return
        self._record_vc_final(state, m)

    def _record_vc_final(self, state: _ViewChangeState,
                         m: msg.VcFinal) -> None:
        state.vc_finals[m.sender] = m
        # Merge the piggybacked view-change messages into our VCSet.
        for vc in m.vcset:
            state.vcset.setdefault(vc.sender, vc)
        if set(state.vc_finals) < set(self.groups.group(m.new_view)):
            return
        self._vc_finals_complete(state)

    # ------------------------------------------------------------------
    # Fault detection (Algorithm 5)
    # ------------------------------------------------------------------
    def _run_fault_detection(self, state: _ViewChangeState) -> None:
        assert self.detector is not None
        replica = self.replica
        if replica.replica_id in state.vc_confirms:
            return  # already ran: our own VC-CONFIRM is filed
        # _record_vc_final merged every VC-FINAL's VCSet into state.vcset.
        faulty = self.detector.detect(replica.view, list(state.vcset.values()))
        replica.detected_faulty.update(faulty)
        state.vcset = {sender: vc for sender, vc in state.vcset.items()
                       if sender not in faulty}
        vcset = tuple(sorted(state.vcset.values(), key=lambda v: v.sender))
        confirm = msg.VcConfirm.signed(
            replica.sign, new_view=replica.view, sender=replica.replica_id,
            vcset_digest=digest_of(vcset))
        replica._fanout_with_self(
            replica._active_names(), confirm, 96,
            lambda: self._record_vc_confirm(state, confirm))

    def _on_vc_confirm(self, src: str, m: msg.VcConfirm) -> None:
        state = self._state_for(m.new_view)
        if state is None or m.sender not in self.groups.group(m.new_view) \
                or not verify_signed(self.replica, m):
            return
        self._record_vc_confirm(state, m)

    def _record_vc_confirm(self, state: _ViewChangeState,
                           m: msg.VcConfirm) -> None:
        state.vc_confirms[m.sender] = m
        if set(state.vc_confirms) < set(self.groups.group(m.new_view)):
            return
        digests = {c.vcset_digest for c in state.vc_confirms.values()}
        if len(digests) != 1:
            self.suspect_view(self.replica.view)
            return
        self.final_proofs[m.new_view] = tuple(
            c.sig for c in sorted(state.vc_confirms.values(),
                                  key=lambda c: c.sender))
        self._finish_view_change(state)

    # ------------------------------------------------------------------
    # State selection and NEW-VIEW (Algorithm 3 lines 18-30)
    # ------------------------------------------------------------------
    def _finish_view_change(self, state: _ViewChangeState) -> None:
        replica = self.replica
        new_view = replica.view
        state.selection, checkpoint = select_state(
            state.vcset.values(), replica.checkpointer.proof_valid,
            with_prepare_logs=self.detector is not None)
        if self.groups.is_primary(new_view, replica.replica_id):
            # Re-propose every selected slot in the new view, signed as
            # the configured path's prepare would be.
            entries = tuple(
                PrepareEntry(seqno, new_view, entry.batch, replica.sign(
                    self._ordering.payload_of(
                        batch_digest=msg.batch_digest_of(entry.batch),
                        seqno=seqno, view=new_view)))
                for seqno, entry in state.selection.items())
            new_view_msg = msg.NewView.signed(
                replica.sign, new_view=new_view, entries=entries,
                checkpoint=checkpoint)
            replica._fanout_with_self(
                replica._active_names(), new_view_msg, 1024,
                lambda: self._adopt_new_view(state, new_view_msg))
        # Followers wait for the primary's NEW-VIEW; _vc_timer still runs.

    def _on_new_view(self, src: str, m: msg.NewView) -> None:
        replica = self.replica
        state = self._state_for(m.new_view)
        if state is None or src != replica.replica_name(
                self.groups.primary(m.new_view)):
            return
        if not verify_signed(replica, m):
            self.suspect_view(replica.view)
            return
        # Verify the primary's selection against our own (Algorithm 3
        # line 26): mismatch means a faulty primary -> suspect.
        if state.selection is not None:
            expected = {sn: msg.batch_digest_of(e.batch)
                        for sn, e in state.selection.items()}
            offered = {e.seqno: msg.batch_digest_of(e.batch)
                       for e in m.entries}
            if expected != offered:
                self.suspect_view(replica.view)
                return
        self._adopt_new_view(state, m)

    def _adopt_new_view(self, state: _ViewChangeState,
                        m: msg.NewView) -> None:
        replica = self.replica
        if state.processed_new_view:
            return
        # State transfer: restore from the checkpoint if we are behind it.
        if not replica.checkpointer.install(m.checkpoint):
            # Only a faulty primary announces a proof that does not verify.
            self.suspect_view(replica.view)
            return
        state.processed_new_view = True
        # Re-commit every selected request in the new view.
        for entry in m.entries:
            replica.prepare_log.put(
                entry.seqno, PrepareEntry(entry.seqno, m.new_view,
                                          entry.batch, entry.primary_sig))
            replica.commit_log.put(
                entry.seqno, CommitEntry(entry.seqno, m.new_view,
                                         entry.batch, (entry.primary_sig,)))
        self.prepare_view = m.new_view
        highest = max((e.seqno for e in m.entries), default=0)
        if m.checkpoint is not None:
            highest = max(highest, m.checkpoint.seqno)
        highest = max(highest, replica.ex)
        # Algorithm 3 line 29: sn <- End(PrepareLog).  Slots this replica
        # prepared in older views that the selection did not adopt are
        # abandoned (their clients retransmit); keeping a higher sn would
        # make the follower reject every new prepare as out-of-order.
        replica.sn = highest
        for stale in [s for s, _ in replica.prepare_log.items()
                      if s > highest]:
            replica.prepare_log.drop(stale)
        replica.execute_ready()
        # Catch up execution over any holes left by a sparse selection: a
        # hole below the highest selected seqno means no request committed
        # there in any previous view, so it is skipped.
        if replica.ex < highest:
            for seqno in range(replica.ex + 1, highest + 1):
                if seqno not in replica.commit_log:
                    replica.ex = seqno
                else:
                    replica.execute_ready()
            replica.execute_ready()
        self._vc_timer.stop()
        self._vc_retx_timer.stop()
        replica.start_view()

    def held_entries(self) -> int:
        """Commit entries reachable from the held VCSet and VC-FINALs
        (``retained()``'s ``view_change_entries``)."""
        state = self._state
        if state is None:
            return 0
        held = {id(vc): vc for vc in state.vcset.values()}
        for final in state.vc_finals.values():
            held.update((id(vc), vc) for vc in final.vcset)
        return sum(len(vc.commit_entries) for vc in held.values())
