"""Zyzzyva client: fast path commits on all 3t + 1 matching responses."""

from __future__ import annotations

from repro.protocols.base import QuorumClient
from repro.protocols.zyzzyva.replica import CommitCert


class ZyzzyvaClient(QuorumClient):
    """Closed-loop client committing on all ``3t + 1`` speculative replies.

    When the retransmission timer fires while the client already holds
    ``2t + 1`` matching speculative responses (a replica is slow or down),
    it assembles a commit certificate from them, forwards it to every
    replica (:class:`CommitCert`), and completes -- the protocol's second
    phase, with the grace period modelled by the timer.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fallback_commits = 0

    def _on_timeout(self) -> None:
        request = self.request
        if request is None:
            return
        need = 2 * self.config.t + 1
        for key in self.tally:
            if not self.tally.quorum(key, need):
                continue
            replies = self.tally.voters(key)
            seqno, digest = key
            cert = CommitCert(
                view=max(r.view for r in replies.values()), seqno=seqno,
                result_digest=digest, client=self.client_id,
                timestamp=request.timestamp,
                repliers=tuple(sorted(replies)))
            assert self.config.n is not None
            names = [f"r{r}" for r in range(self.config.n)]
            self.multicast_authenticated(names, cert, size_bytes=96)
            self.fallback_commits += 1
            self.complete(self.tally.result(key))
            return
        super()._on_timeout()
