"""Lazy replication and state retrieval (Section 4.5.2): LAZY-COMMIT
from the active replicas to the passive ones, FETCH-ENTRIES / FETCH-REPLY
for a replica that finds a hole in what it was sent.

:class:`LazyReplicator` is handed the replica and owns the "a fetch is
outstanding" flag; whom an active replica replicates to is decided once,
at construction.  It reaches the core through ``commit_log`` and
``execute_ready``, the :class:`Checkpointer` through ``install`` and the
:class:`ViewChanger` through ``saw_lazy_commit``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.protocols.xpaxos import messages as msg
from repro.smr.log import CommitEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.xpaxos.replica import XPaxosReplica


class LazyReplicator:
    """Keeps the passive replicas up to date, and catches one up."""

    def __init__(self, replica: "XPaxosReplica") -> None:
        self.replica = replica
        self._fetch_pending = False
        config = replica.config
        # Who an active replica replicates a slot to: at t = 1 the
        # follower serves every passive replica, at t >= 2 each follower
        # serves the passive replica at its own position.
        if not config.use_lazy_replication:
            self._targets = lambda view: ()
        elif config.t == 1:
            self._targets = replica.groups.passive
        else:
            self._targets = self._passive_at_own_position
        replica._handlers.update({
            msg.LazyCommit: self._on_lazy_commit,
            msg.FetchEntries: self._on_fetch,
            msg.FetchReply: self._on_fetch_reply,
        })

    def _passive_at_own_position(self, view: int) -> Sequence[int]:
        groups = self.replica.groups
        passive = groups.passive(view)
        index = groups.followers(view).index(self.replica.replica_id)
        return (passive[index % len(passive)],)

    def replicate(self, entry: CommitEntry) -> None:
        """A follower committed and executed ``entry``: pass it on."""
        replica = self.replica
        targets = self._targets(replica.view)
        if not targets:
            return
        lazy = msg.LazyCommit(replica.view, entry.seqno, entry)
        replica.multicast_authenticated(
            [replica.replica_name(target) for target in targets], lazy)

    def _on_lazy_commit(self, src: str, m: msg.LazyCommit) -> None:
        replica = self.replica
        replica.view_changer.saw_lazy_commit(m.view)
        if m.seqno in replica.commit_log or m.seqno <= replica.ex:
            return
        replica.commit_log.put(m.seqno, m.entry)
        replica.execute_ready()
        if replica.ex + 1 < m.seqno:
            # A hole below this entry: some lazy messages were lost while
            # we were down.  Retrieve the missing state (Section 4.5.2).
            self.fetch_missing(replica.ex + 1, m.seqno - 1)

    def fetch_missing(self, from_seqno: int, to_seqno: int) -> None:
        """Ask the active replicas for ``[from_seqno, to_seqno]`` unless a
        fetch is already outstanding."""
        if self._fetch_pending:
            return
        self._fetch_pending = True
        replica = self.replica
        request = msg.FetchEntries(from_seqno, to_seqno, replica.replica_id)
        replica.multicast_authenticated(
            [name for name in replica._active_names()
             if name != replica.name],
            request)
        # Allow a re-fetch if the reply is lost.
        sim = replica.sim
        sim.schedule(sim.now + 2 * replica.config.delta_ms,
                     self._window_closed)

    def _window_closed(self) -> None:
        # A crash swallows the window's end, so recovery must say so.
        if not self.replica.crashed:
            self.recovered()

    def recovered(self) -> None:
        """No fetch is outstanding: the reply came, the 2-Delta window
        closed, or the replica crashed."""
        self._fetch_pending = False

    def _on_fetch(self, src: str, m: msg.FetchEntries) -> None:
        # The range is whatever a peer sent: walk our log, not the range.
        replica = self.replica
        entries = tuple(entry for seqno, entry in replica.commit_log.items()
                        if m.from_seqno <= seqno <= m.to_seqno)
        replica.send_authenticated(
            src, msg.FetchReply(entries, replica.stable_checkpoint))

    def _on_fetch_reply(self, src: str, m: msg.FetchReply) -> None:
        replica = self.replica
        self.recovered()
        replica.checkpointer.install(m.checkpoint)
        for entry in m.entries:
            if entry.seqno > replica.ex \
                    and entry.seqno not in replica.commit_log:
                replica.commit_log.put(entry.seqno, entry)
        replica.execute_ready()
