"""Commit progress (Section 4.3.2): an active replica suspects its own
view when a slot it has prepared does not commit within the synchrony
bound.

A group of t + 1 commits only with every member's signature, and a
correct, synchronous group commits a prepared slot inside
:func:`commit_bound_ms`.  A slot still uncommitted after that is the
evidence Algorithm 4 waits for a client to point at -- the replica
already holds it, so it calls ``suspect_view`` itself: no new message,
and ``ViewChanger.suspect_view`` keeps saying who may suspect.

:class:`ProgressWatch` is handed the replica and owns the watch (the
oldest slot prepared here and not yet committed, and since when) and
one timer.  The core reports ``prepared`` and ``committed`` slots and
ends the watch in ``leave_view`` (``view_left``); ``recover`` ends it
through ``recovered``.  The watch reads ``sn``, ``ex`` and
``commit_log``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Optional

from repro.common.config import ClusterConfig
from repro.sim.process import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.xpaxos.replica import XPaxosReplica


def commit_bound_ms(config: ClusterConfig) -> float:
    """How long a correct, synchronous group may take to commit a
    request an active replica holds: the 2-Delta round trip of the
    ordering exchange plus a round of normal operation (batching, the
    pipeline window)."""
    return 2 * config.delta_ms + 8 * config.batch_timeout_ms


class ProgressWatch:
    """The commit-progress watch of one replica.

    One timer, re-armed lazily: the first outstanding slot arms it, and
    when it fires the watch is idle (nothing armed until the next
    prepared slot), has moved on (re-armed for what is left of the
    current slot's bound), or has had its whole bound (suspect) -- about
    one timer event per bound, never a start / stop per slot.
    """

    def __init__(self, replica: "XPaxosReplica") -> None:
        self.replica = replica
        self._bound_ms = commit_bound_ms(replica.config)
        #: The oldest slot prepared here and not yet committed, if any.
        self._seqno: Optional[int] = None
        #: When the watch moved to it: no earlier than it was prepared,
        #: so the watch never runs out before the slot's own bound.
        self._since = 0.0
        #: The ``_since`` the armed timer's deadline was computed from.
        self._armed_since = 0.0
        self._timer = Timer(replica, self._on_timer, "timer_progress")

    def prepared(self, seqno: int) -> None:
        """The core prepared ``seqno`` in the current view."""
        if self._seqno is None:
            self._watch(seqno)
            if not self._timer.armed:
                self._arm()

    def committed(self, seqno: int) -> None:
        """The core committed ``seqno``: if it was the watched slot, the
        watch moves to the next one outstanding."""
        if seqno == self._seqno:
            self._watch(self._oldest_outstanding(seqno + 1))

    def recovered(self) -> None:
        """The replica crashed or left its view: what was prepared is
        the view change's business now.  The timer may stay armed; it
        finds nothing to watch."""
        self._seqno = None

    view_left = recovered

    def _watch(self, seqno: Optional[int]) -> None:
        self._seqno = seqno
        self._since = self.replica.sim.now

    def _arm(self) -> None:
        self._armed_since = self._since
        # Never negative but for the rounding of a deadline a tick away.
        self._timer.start(max(
            0.0, self._since + self._bound_ms - self.replica.sim.now))

    def _oldest_outstanding(self, seqno: int) -> Optional[int]:
        """The first slot from ``seqno`` on that is prepared here and
        neither executed nor in the commit log."""
        replica = self.replica
        commit_log = replica.commit_log
        for candidate in range(max(seqno, replica.ex + 1), replica.sn + 1):
            if candidate not in commit_log:
                return candidate
        return None

    def _on_timer(self) -> None:
        if self._seqno is None:
            return  # idle: the next prepared slot arms the timer again
        oldest = self._oldest_outstanding(self._seqno)
        if oldest != self._seqno:
            # Committed without a report (a LAZY-COMMIT, state transfer).
            self._watch(oldest)
            if oldest is None:
                return
        if self._since > self._armed_since:
            self._arm()  # the watch moved on since: what is left of it
            return
        # The watched slot has had its whole bound.  ``suspect_view``
        # refuses a replica that is not active in its view.
        seqno, self._seqno = self._seqno, None
        self.replica.suspect_view(self.replica.view, self._silent(seqno))

    def _silent(self, seqno: int) -> Collection[int]:
        """The followers whose vote for ``seqno`` is missing, if another
        member was heard for it (a follower holds the primary's PREPARE,
        a primary needs a vote); else none: who heard nobody may be the
        one cut off (``SynchronousGroups``)."""
        replica = self.replica
        voters = replica.voters(seqno)
        if replica.is_primary and not voters:
            return ()
        return [f for f in replica.groups.followers(replica.view)
                if f not in voters and f != replica.replica_id]
