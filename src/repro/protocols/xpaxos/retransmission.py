"""Request retransmission, replica side (Algorithm 4): a client whose
request timed out sends RE-SEND to every active replica; they get it
ordered, exchange signed reply shares, hand the client t + 1 matching ones
as SIGNED-REPLIES -- or suspect the view if none of that happens in time.

:class:`Retransmitter` is handed the replica and owns the per-request
state and timers and the RE-SENDs buffered during a view change.  It
reaches the core through ``cached_reply``, ``_on_replicate``,
``_verify_request``, ``sign``, ``_fanout_with_self`` and ``suspect_view``;
the core tells it when a request executed while any is waiting
(``waiting`` / ``executed``) and when a view is left or installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List

from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.progress import commit_bound_ms
from repro.protocols.xpaxos.signed import verify_signed
from repro.sim.process import Timer
from repro.smr.messages import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.xpaxos.replica import XPaxosReplica


@dataclass
class _RetransmissionState:
    """Per-request bookkeeping for Algorithm 4."""

    request: Request
    timer: Timer
    shares: Dict[int, msg.SignedReplyShare] = field(default_factory=dict)
    done: bool = False
    retries: int = 0

    def settle(self) -> None:
        """The retransmission is resolved: disarm its timer."""
        self.done = True
        self.timer.stop()


class Retransmitter:
    """Algorithm 4 for one replica."""

    def __init__(self, replica: "XPaxosReplica") -> None:
        self.replica = replica
        #: Retransmitted requests by ``rid``: each client's latest,
        #: resolved or not (a late share or RE-SEND for it must add
        #: nothing), and none the client has moved past.
        self.waiting: Dict[tuple, _RetransmissionState] = {}
        self._buffered_resends: List[msg.ReSend] = []
        # A retransmitted request must commit within the bound a prepared
        # slot has; one that waits out a view change gets the 2-Delta
        # gather of the new view on top.
        self._commit_bound_ms = commit_bound_ms(replica.config)
        self._view_change_bound_ms = (2 * replica.config.delta_ms
                                      + self._commit_bound_ms)
        replica._handlers.update({
            msg.ReSend: self._on_resend,
            msg.SignedReplyShare: self._on_signed_reply_share,
        })

    def _on_resend(self, src: str, m: msg.ReSend) -> None:
        replica = self.replica
        size = m.request.size_bytes
        if size.__class__ is not int or size < 0:
            return  # a size no client sends: no batch may carry it
        if replica.in_view_change:
            # The request cannot commit until the view change finishes;
            # buffer the retransmission and replay it in the new view.
            self._buffered_resends.append(m)
            return
        if not replica.is_active:
            return
        request = m.request
        if not replica._verify_request(request):
            return
        cached = replica.cached_reply(request.client, request.timestamp)
        if cached is None:
            # Not executed yet: get it ordered.
            if not replica.is_primary:
                replica.send_authenticated(
                    replica.replica_name(
                        replica.groups.primary(replica.view)),
                    msg.Replicate(request))
            else:
                replica._on_replicate(src, msg.Replicate(request))
        elif cached.timestamp > request.timestamp:
            return  # a stale RE-SEND: the client has moved past it
        self._start(request)

    def _start(self, request: Request) -> _RetransmissionState:
        """Track ``request`` until it is answered, and -- if it already
        executed here -- re-answer at once with our signed share."""
        state = self.waiting.get(request.rid)
        if state is None:
            state = _RetransmissionState(request, Timer(
                self.replica, partial(self._on_timeout, request.rid),
                "timer_req"))
            self.waiting[request.rid] = state
        if state.done:
            return state
        if not state.timer.armed:
            state.timer.start(self._commit_bound_ms)
        self.emit_share(request.rid)
        return state

    def _moved_past(self, state: _RetransmissionState, cached: Any) -> bool:
        """Has the client committed this request and moved on?  Then the
        retransmission is settled, not a liveness problem."""
        if cached is None or cached.timestamp <= state.request.timestamp:
            return False
        self._drop(state)
        return True

    def _drop(self, state: _RetransmissionState) -> None:
        """Nothing can ask about ``state``'s request again: neither its
        record nor its timer is kept."""
        state.done = True
        state.timer.discard()
        del self.waiting[state.request.rid]

    def executed(self, request: Request) -> None:
        """The core executed ``request`` and cached its reply (called
        while anything is waiting): a retransmission waiting on it gets
        our share, and the client has moved past its earlier ones -- the
        records nobody is timing go now, one still timed when its timer
        finds the same."""
        client, timestamp = request.rid
        for rid, state in [item for item in self.waiting.items()
                           if item[0][0] == client]:
            if rid[1] == timestamp:
                self.emit_share(rid)
            elif rid[1] < timestamp and not state.timer.armed:
                self._drop(state)

    def emit_share(self, rid: tuple) -> None:
        """Sign and circulate our reply to the waiting request ``rid``,
        if we have executed it."""
        replica = self.replica
        state = self.waiting[rid]
        request = state.request
        cached = replica.cached_reply(request.client, request.timestamp)
        if cached is None or self._moved_past(state, cached):
            return
        share = msg.SignedReplyShare.signed(
            replica.sign, view=replica.view, seqno=cached.seqno,
            timestamp=cached.timestamp, client=cached.client,
            reply_digest=cached.result_digest, result=cached.result,
            sender=replica.replica_id)
        replica._fanout_with_self(
            replica._active_names(), share,
            lambda: self._on_signed_reply_share(replica.name, share))

    def _on_signed_reply_share(self, src: str,
                               m: msg.SignedReplyShare) -> None:
        replica = self.replica
        state = self.waiting.get((m.client, m.timestamp))
        if state is None:
            # A peer is collecting signed replies for this request
            # (Algorithm 4 line 7: every active replica is asked to sign):
            # join in, contributing our own share once we have executed it.
            if replica.cached_reply(m.client, m.timestamp) is None:
                return  # not executed here yet; our share will follow
            state = self._start(
                Request(op=None, timestamp=m.timestamp, client=m.client))
        if state.done:
            return
        # Shares are filed under the sender they name, so that must be
        # who signed: one replica may not vote under several names.
        if not verify_signed(replica, m):
            return
        state.shares[m.sender] = m
        quorum = replica.config.t + 1
        matching = [s for s in state.shares.values()
                    if (s.seqno, s.reply_digest) == (m.seqno, m.reply_digest)]
        if len(matching) >= quorum:
            state.settle()
            bundle = msg.SignedReplies(
                view=replica.view,
                shares=tuple(sorted(matching,
                                    key=lambda s: s.sender)[:quorum]))
            replica.send_authenticated(f"c{m.client}", bundle)

    def _on_timeout(self, rid: tuple) -> None:
        state = self.waiting.get(rid)
        if state is None or state.done:
            return
        replica = self.replica
        request = state.request
        cached = replica.cached_reply(request.client, request.timestamp)
        if self._moved_past(state, cached) or not replica.is_active:
            return  # the rest is for an active replica of this view
        if cached is not None and state.retries == 0:
            # We executed the request but the signed-reply quorum has not
            # formed (a peer may have missed the RE-SEND or a share was
            # lost).  Retry the collection once before suspecting; the
            # share exchange is a single active-to-active round trip, so
            # one Delta bounds it.
            state.retries += 1
            self.emit_share(request.rid)
            state.timer.start(replica.config.delta_ms)
            return
        # Algorithm 4 lines 8-10: suspect the view and tell the client.
        view = replica.view
        replica.suspect_view(view)
        # Signed straight from the keystore: this copy for the client has
        # never been charged to the modelled CPU.
        suspect = msg.Suspect.signed(
            partial(replica.keystore.sign, replica.principal), view=view,
            sender=replica.replica_id)
        replica.send_authenticated(f"c{request.client}", suspect)

    # -- the core's side of a crash and of a view change -------------------
    def recovered(self) -> None:
        """The records are volatile, and their timers died in the crash.
        The RE-SENDs buffered for the next NEW-VIEW are kept, for the
        view change a crash keeps too (docs/execution.md says why)."""
        for state in list(self.waiting.values()):
            self._drop(state)

    def view_left(self) -> None:
        """Give pending retransmissions a fresh window: the new view needs
        time to form before it can possibly commit them.  A replica that
        is not active in the view it enters has nothing to time: its
        timers are disarmed and the records stay, for ``view_installed``
        to replay if it turns active again."""
        active = self.replica.is_active
        for state in self.waiting.values():
            if not state.done and state.timer.armed:
                if active:
                    state.timer.start(self._view_change_bound_ms)
                else:
                    state.timer.stop()

    def view_installed(self) -> None:
        """Replay client retransmissions that arrived during the change, and
        re-drive every still-unresolved retransmission: requests prepared
        but not committed in the old view were dropped by the state
        selection, and waiting for the client's next backoff retry would
        race the replica-side progress timer."""
        replica = self.replica
        buffered, self._buffered_resends = self._buffered_resends, []
        if not replica.is_active:
            return
        sim = replica.sim
        for resend in buffered:
            sim.schedule(sim.now, self._on_resend, ("buffered", resend))
        for state in self.waiting.values():
            if state.done or state.request.signature is None:
                continue
            sim.schedule(sim.now, self._on_resend,
                         ("replayed", msg.ReSend(state.request)))
