"""The XPaxos client: signed requests, the commit rule, retransmission.

Commit rules (Section 4.2):

* ``t = 1``: the client receives a single reply from the primary that embeds
  the follower's signed commit ``m1``; it commits when the MAC verifies, the
  follower's signature verifies, and all digests match -- two attestations
  in one message.
* ``t >= 2``: the client commits on ``t + 1`` matching replies, one from
  each active replica (the primary's carries the full result, followers'
  carry digests).

On timeout the client runs Algorithm 4: broadcast ``RE-SEND`` to all active
replicas, accept a ``SIGNED-REPLIES`` bundle with ``t + 1`` signed replies,
and follow ``SUSPECT`` messages into the next view.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common.config import ClusterConfig
from repro.crypto.costs import CostModel
from repro.crypto.primitives import KeyStore, digest_of
from repro.net.network import Network
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.groups import SynchronousGroups
from repro.protocols.xpaxos.signed import verify_signed
from repro.sim.core import Simulator
from repro.smr.messages import Request
from repro.smr.runtime import SmrClientBase


class XPaxosClient(SmrClientBase):
    """A closed-loop XPaxos client."""

    def __init__(self, client_id: int, config: ClusterConfig,
                 sim: Simulator, network: Network, keystore: KeyStore,
                 site: str, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(client_id, config, sim, network, keystore, site,
                         cost_model)
        assert config.n is not None
        self.groups = SynchronousGroups(config.n, config.t)

    # ------------------------------------------------------------------
    def make_request(self, op: Any, timestamp: int,
                     size_bytes: int) -> Request:
        return Request.signed(op, timestamp, self.client_id, size_bytes,
                              self.sign)

    def send_request(self, request: Request) -> None:
        primary = self.groups.primary(self.view)
        self.send_authenticated(f"r{primary}", msg.Replicate(request),
                                size_bytes=request.size_bytes)

    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, msg.ReplyMsg):
            self._on_reply(payload)
        elif isinstance(payload, msg.SignedReplies):
            self._on_signed_replies(payload)
        elif isinstance(payload, msg.Suspect):
            self._on_suspect(payload)

    def _on_reply(self, reply: msg.ReplyMsg) -> None:
        # The reply's channel MAC was stamped and verified by the
        # transport (MAC_VECTOR policy); only content checks remain here.
        request = self.request
        if request is None or reply.timestamp != request.timestamp:
            return
        if reply.view > self.view:
            self.view = reply.view

        if self.config.t == 1:
            self._fast_commit_rule(reply)
        else:
            self._general_commit_rule(reply)

    def _fast_commit_rule(self, reply: msg.ReplyMsg) -> None:
        """t = 1: one primary reply embedding the follower's m1."""
        fc = reply.follower_commit
        if fc is None or fc.view != reply.view or fc.seqno != reply.seqno:
            return
        if not verify_signed(self, fc):
            return
        if digest_of(reply.result) != reply.result_digest:
            return
        self.complete(reply.result)

    def _general_commit_rule(self, reply: msg.ReplyMsg) -> None:
        """t >= 2: t+1 matching replies, one from each active replica of
        the reply's view, one of them (the primary's) with the result."""
        if reply.replica not in self.groups.group(reply.view):
            return
        key = (reply.view, reply.seqno, reply.result_digest)
        self.tally.add(reply.replica, key, reply,
                       full=reply.result is not None)
        if not self.tally.quorum(key, self.config.t + 1):
            return
        full = self.tally.result(key)
        if digest_of(full) != reply.result_digest:
            return
        self.complete(full)

    def _on_signed_replies(self, bundle: msg.SignedReplies) -> None:
        """Retransmission answer (Algorithm 4): signed replies from t + 1
        distinct replicas, each signed by the replica it names, all for
        the same ``(seqno, reply digest)``, one of them carrying a result
        that hashes to that digest.  Anything less is ignored and the
        client keeps waiting: ``result`` is outside the signed payload,
        so only the digest check ties it to the signatures."""
        request = self.request
        if request is None:
            return
        shares = [s for s in bundle.shares
                  if s.timestamp == request.timestamp
                  and s.client == self.client_id]
        if len({s.sender for s in shares}) < self.config.t + 1:
            return
        reference = shares[0]
        for share in shares:
            if (share.seqno, share.reply_digest) != (
                    reference.seqno, reference.reply_digest):
                return
            if not verify_signed(self, share):
                return
        for share in shares:
            if digest_of(share.result) == reference.reply_digest:
                break
        else:
            return  # digests only, or a result nobody signed for
        if bundle.view > self.view:
            self.view = bundle.view
        self.complete(share.result)

    def _on_suspect(self, suspect: msg.Suspect) -> None:
        """Algorithm 4 lines 11-15: follow the view change."""
        if suspect.view < self.view:
            return
        if not self.groups.is_active(suspect.view, suspect.sender):
            return
        if not verify_signed(self, suspect):
            return
        self.view = suspect.view + 1
        if self.request is None:
            return
        # Forward the suspicion to the new actives and re-send the request.
        self.multicast_authenticated(
            [f"r{r}" for r in self.groups.group(self.view)],
            suspect, size_bytes=48)
        self.resent = True
        self.send_request(self.request)
        self._timer.start(self.config.request_retransmit_ms)

    # ------------------------------------------------------------------
    def retransmit(self, request: Request) -> None:
        """Client timer expiry: broadcast RE-SEND to all actives.

        The retry timer backs off exponentially (capped): during a view
        change the request cannot commit anyway, and re-sending faster than
        the view-change period only feeds the suspicion cascade.
        """
        self.multicast_authenticated(
            [f"r{r}" for r in self.groups.group(self.view)],
            msg.ReSend(request), size_bytes=request.size_bytes)
        backoff = (2.0 if self.retries > 1 else 1.0) \
            * self.config.request_retransmit_ms
        self._timer.start(backoff)
