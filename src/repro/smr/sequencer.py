"""Leader-side batching and slot pipelining (one sequencer per replica)."""

from __future__ import annotations

from typing import List

from repro.sim.process import Timer
from repro.smr.messages import Batch, Request


class PipelinedSequencer:
    """Leader-side batching and slot pipelining, shared by every protocol.

    One instance lives on each replica (baseline and XPaxos alike) and owns
    the queue of client requests awaiting a slot, the dedup set of requests
    offered and not yet executed, the batch timer, and the pipeline window:
    the leader may have at most ``config.pipeline_depth`` slots issued but
    not yet executed.  When the window is full a flush parks instead of
    proposing; executing a slot re-opens the window and :meth:`pump` resumes
    the parked flush.

    A slot goes out when its batch is full or the batch timer fires, and
    the window has room.  The depth is a constant (16 by default), deep
    enough that a WAN leader's timer batches do not bunch at the start of
    a round trip, shallow enough that the window still bounds what a view
    change abandons; the measurements that decided it are in
    ``docs/workloads.md``, "Why a 16-slot window".  While the window never
    fills, the event sequence is identical to an unbounded pipeline --
    which is what keeps byte-identical determinism goldens stable for
    workloads that never push the window.

    Slots re-proposed during a view change or ballot merge are *carried*
    state, not new issues: :meth:`carry_over` excludes everything up to
    the current ``sn`` from the window, so a fresh leader is never blocked
    on its own catch-up traffic.

    The host replica provides:

    * ``sn`` / ``ex`` attributes (highest issued / highest executed slot),
    * ``may_propose()`` -- whether this replica may cut batches right now,
    * ``propose_batch(seqno, batch)`` -- start the protocol's ordering
      exchange.
    """

    def __init__(self, replica) -> None:
        self.replica = replica
        self.config = replica.config
        self.pending: List[Request] = []
        self.seen: set = set()
        self._timer = Timer(replica, self.flush, "batch")
        self._parked = False
        self._carried_upto = 0
        #: Flushes deferred because the window was full (statistics).
        self.stalls = 0

    # -- window -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Slots issued by this leader and not yet executed, excluding
        carried-over re-proposals."""
        replica = self.replica
        return replica.sn - max(replica.ex, self._carried_upto)

    def carry_over(self) -> None:
        """Exclude every slot up to the current ``sn`` from the window
        (called after a view install / ballot merge re-proposed them)."""
        self._carried_upto = max(self._carried_upto, self.replica.sn)

    # -- intake -----------------------------------------------------------
    def offer(self, request: Request) -> bool:
        """Enqueue one deduplicated request; cut a batch when full.

        Returns False when the request id was already seen.
        """
        if request.rid in self.seen:
            return False
        self.seen.add(request.rid)
        self.pending.append(request)
        if len(self.pending) >= self.config.batch_size:
            self.flush()
        elif not self._timer.armed:
            self._timer.start(self.config.batch_timeout_ms)
        return True

    def forget(self, rids) -> None:
        """The requests ``rids`` were executed on this replica.  Both
        request intakes ask its reply cache (``answer_from_cache``) before
        they :meth:`offer`, so a duplicate of an executed request never
        gets here and the dedup set need not keep it: ``seen`` holds what
        was offered and is not yet executed, not every id ever offered."""
        if self.seen:
            self.seen.difference_update(rids)

    # -- slot issue -------------------------------------------------------
    def flush(self) -> None:
        """Cut one batch, assign it the next slot, and propose it --
        unless the pipeline window is full, in which case the flush parks
        until :meth:`pump` re-opens it."""
        self._timer.stop()
        if not self.pending or not self.replica.may_propose():
            return
        if self.in_flight >= self.config.pipeline_depth:
            self._parked = True
            self.stalls += 1
            return
        requests = tuple(self.pending[: self.config.batch_size])
        del self.pending[: len(requests)]
        batch = Batch(requests)
        self.replica.sn += 1
        self.replica.propose_batch(self.replica.sn, batch)
        if self.pending:
            self.replica.sim.call_soon(self.flush)

    def pump(self) -> None:
        """Resume a parked flush after execution advanced the window."""
        if self._parked:
            self._parked = False
            if self.pending:
                self.replica.sim.call_soon(self.flush)

    def kick(self) -> None:
        """Schedule a flush if anything is pending (leader-change entry
        points use this instead of calling :meth:`flush` inline)."""
        if self.pending:
            self.replica.sim.call_soon(self.flush)

    # -- leader-change housekeeping ---------------------------------------
    def stop_timer(self) -> None:
        """Disarm the batch timer (stepping out of the leader role)."""
        self._timer.stop()

    def drain(self) -> List[Request]:
        """Hand back (and forget) every queued request, un-marking their
        ids so retransmissions to a new leader are not dropped as dups."""
        pending, self.pending = self.pending, []
        for request in pending:
            self.seen.discard(request.rid)
        return pending

    def recovered(self) -> None:
        """The queue and its ``seen`` marks are volatile (its batch timer
        died in the crash): a client's re-send is ordered afresh."""
        self.drain()

    def reset_seen(self, rids) -> None:
        """Replace the dedup set (a fresh leader rebuilds it from its
        committed log)."""
        self.seen = set(rids)
