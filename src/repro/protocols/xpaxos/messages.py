"""Every wire message of XPaxos.

Naming follows the paper's pseudocode (Appendix B).  All inter-replica
messages carry digital signatures *in their payloads* and therefore need
no transport authenticator (:data:`~repro.crypto.authenticators.NULL`).
The two MAC-authenticated channels -- client-bound replies and the
active-to-active ``PRECHK`` exchange -- use the transport-level
:data:`~repro.crypto.authenticators.MAC_VECTOR` policy: the per-receiver
MAC is stamped by the network at delivery fan-out time instead of being
embedded in the payload, so these fan-outs ride the multicast fast path.

A signed message (the paper's ``<m>_sigma``) declares once, on its class,
what its signature covers and which replica must have made it: the
contract is :class:`~repro.protocols.xpaxos.signed.Signed`, and
:func:`~repro.protocols.xpaxos.signed.verify_signed` the one check built
on it (docs/authenticators.md, "Signed payloads").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.authenticators import MAC_VECTOR, NULL, register
from repro.crypto.primitives import Digest, Signature, digest_of
from repro.protocols.xpaxos.signed import Signed
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request


def batch_digest_of(batch: Batch) -> Digest:
    """The paper's ``D(req)`` lifted to batches.

    Covers the full signed body of every request (operation, timestamp,
    client) -- not just the identifiers -- so two different operations can
    never share a digest.
    """
    return batch.bodies_digest()


# ---------------------------------------------------------------------------
# Common case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Replicate:
    """Client -> primary: a signed request (``<REPLICATE, op, ts, c>``)."""

    request: Request


@dataclass(frozen=True)
class Prepare(Signed):
    """Primary -> followers (t >= 2): ``<req, prep>``, the primary's
    signed ``<PREPARE, D(req), sn, i>``."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest
    primary_sig: Signature

    tag = "prepare"
    covers = ("batch_digest", "seqno", "view")
    signature_field = "primary_sig"

    def signer(self, groups: Any) -> int:
        return groups.primary(self.view)


@dataclass(frozen=True)
class CommitVote(Signed):
    """Follower -> active replicas (t >= 2): its signed
    ``<COMMIT, D(req), sn, i>``."""

    view: int
    seqno: int
    batch_digest: Digest
    sender: int
    sig: Signature

    tag = "commit"
    covers = ("batch_digest", "seqno", "view", "sender")


@dataclass(frozen=True)
class FastPrepare(Signed):
    """Primary -> follower (t = 1): ``<req, m0>``, ``m0`` being the
    primary's signed commit."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest
    m0: Signature

    tag = "commit0"
    covers = ("batch_digest", "seqno", "view")
    signature_field = "m0"

    def signer(self, groups: Any) -> int:
        return groups.primary(self.view)


@dataclass(frozen=True)
class FastCommit(Signed):
    """Follower -> primary (t = 1): ``m1``, the follower's signed commit,
    also covering the digest of the replies it computed.  The primary
    embeds this object in the reply to every client of the batch, so
    primary and clients share one payload digest."""

    view: int
    seqno: int
    batch_digest: Digest
    reply_digest: Digest
    m1: Signature

    tag = "commit1"
    covers = ("batch_digest", "seqno", "view", "reply_digest")
    signature_field = "m1"

    def signer(self, groups: Any) -> int:
        return groups.followers(self.view)[0]


@dataclass(frozen=True)
class ReplyMsg:
    """Active replica -> client (channel MAC stamped by the transport).

    ``result`` is the full application reply from the primary and ``None``
    (digest only) from followers.  In the t = 1 pattern the primary's reply
    embeds the follower's ``m1`` so the client can check both attestations
    from a single message.
    """

    replica: int
    view: int
    seqno: int
    timestamp: int
    client: int
    result: Any
    result_digest: Digest
    follower_commit: Optional[FastCommit] = None
    size_bytes: int = 0


# ---------------------------------------------------------------------------
# View change
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suspect(Signed):
    """``<SUSPECT, i, sj>`` broadcast to all replicas (and to clients that
    asked for retransmission)."""

    view: int
    sender: int
    sig: Signature

    tag = "suspect"
    covers = ("view", "sender")


@dataclass(frozen=True)
class CheckpointProof:
    """A stable checkpoint: sequence number, state digest, t+1 signatures,
    and the state snapshot used for state transfer."""

    seqno: int
    view: int
    state_digest: bytes
    sigs: Tuple[Signature, ...]
    snapshot: Any


@dataclass(frozen=True)
class ViewChange(Signed):
    """``<VIEW-CHANGE, i+1, sj, CommitLog, ...>``.

    ``commit_entries`` / ``prepare_entries`` are tuples of ``(sn, entry)``
    pairs -- immutable snapshots of the sender's logs.  ``prepare_entries``
    and ``final_proof`` are only present in fault-detection mode
    (Algorithm 5).
    """

    new_view: int
    sender: int
    commit_entries: Tuple[Tuple[int, CommitEntry], ...]
    checkpoint: Optional[CheckpointProof]
    sig: Signature
    prepare_entries: Optional[Tuple[Tuple[int, PrepareEntry], ...]] = None
    prepare_view: int = 0
    final_proof: Optional[Tuple[Signature, ...]] = None

    tag = "view-change"
    covers = ("new_view", "sender", "commit_entries", "prepare_entries",
              "checkpoint", "prepare_view", "final_proof")

    @classmethod
    def payload_of(cls, **fields: Any) -> tuple:
        # The checkpoint proof certifies itself (t + 1 CHKPT signatures,
        # ``_checkpoint_proof_valid``) and drags a snapshot along; the
        # sender's signature only pins which state it vouches for.
        proof = fields["checkpoint"]
        fields["checkpoint"] = \
            digest_of(proof.state_digest) if proof is not None else None
        return super().payload_of(**fields)

    def wire_size(self) -> int:
        """Modelled bytes on the wire: grows with the logs it carries."""
        size = 128
        for _, entry in self.commit_entries:
            size += entry.batch.size_bytes + 128
        if self.prepare_entries:
            for _, entry in self.prepare_entries:
                size += entry.batch.size_bytes + 64
        return size


@dataclass(frozen=True)
class VcFinal(Signed):
    """``<VC-FINAL, i+1, sj, VCSet>``: the signature covers the digest of
    the set, which the receiver compares with ``digest_of(vcset)``."""

    new_view: int
    sender: int
    vcset: Tuple[ViewChange, ...]
    vcset_digest: Digest
    sig: Signature

    tag = "vc-final"
    covers = ("new_view", "sender", "vcset_digest")


@dataclass(frozen=True)
class VcConfirm(Signed):
    """``<VC-CONFIRM, i+1, D(VCSet)>`` (fault-detection mode only)."""

    new_view: int
    sender: int
    vcset_digest: Digest
    sig: Signature

    tag = "vc-confirm"
    covers = ("new_view", "sender", "vcset_digest")


@dataclass(frozen=True)
class NewView(Signed):
    """``<NEW-VIEW, i+1, PrepareLog>`` from the new primary.  The
    checkpoint proof certifies itself and stays outside the signature."""

    new_view: int
    entries: Tuple[PrepareEntry, ...]
    checkpoint: Optional[CheckpointProof]
    sig: Signature

    tag = "new-view"
    covers = ("new_view", "entries")

    def signer(self, groups: Any) -> int:
        return groups.primary(self.new_view)


# ---------------------------------------------------------------------------
# Fault detection accusations (Algorithm 6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultAccusation:
    """``<STATE-LOSS | FORK-I | FORK-II, ...>`` broadcast to all replicas."""

    kind: str  # "state-loss" | "fork-i" | "fork-ii"
    accused: int
    seqno: int
    view: int
    evidence: Any


# ---------------------------------------------------------------------------
# Checkpointing and lazy replication (Section 4.5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreChk:
    """``<PRECHK, sn, i, D(st), sj>`` on the cheap active-to-active
    MAC channel; the per-receiver MAC is stamped by the transport."""

    seqno: int
    view: int
    state_digest: bytes
    sender: int


@dataclass(frozen=True)
class Chkpt(Signed):
    """``<CHKPT, sn, i, D(st), sj>`` signed (the durable proof)."""

    seqno: int
    view: int
    state_digest: bytes
    sender: int
    sig: Signature

    tag = "chkpt"
    covers = ("seqno", "view", "state_digest", "sender")


@dataclass(frozen=True)
class LazyChk:
    """``<LAZYCHK, chkProof>`` pushed to passive replicas."""

    proof: CheckpointProof


@dataclass(frozen=True)
class LazyCommit:
    """Lazy replication of one commit-log entry to a passive replica."""

    view: int
    seqno: int
    entry: CommitEntry


@dataclass(frozen=True)
class FetchEntries:
    """Passive/recovering replica -> active replica: request the committed
    entries in ``[from_seqno, to_seqno]`` (state retrieval, Section 4.5.2:
    a replica behind the lazy stream "could only retrieve the missing
    state from others")."""

    from_seqno: int
    to_seqno: int
    sender: int


@dataclass(frozen=True)
class FetchReply:
    """Active replica -> requester: the requested commit-log entries plus
    the responder's stable checkpoint (for requests below the log's
    low-water mark)."""

    entries: Tuple[CommitEntry, ...]
    checkpoint: Optional[CheckpointProof]


# ---------------------------------------------------------------------------
# Request retransmission (Algorithm 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReSend:
    """Client -> all active replicas after its timer expires."""

    request: Request


@dataclass(frozen=True)
class SignedReplyShare(Signed):
    """Active -> active: one replica's signed reply for a retransmitted
    request (Algorithm 4, lines 16-17).  ``result`` travels outside the
    signature; only ``digest_of(result) == reply_digest`` ties it in."""

    view: int
    seqno: int
    timestamp: int
    client: int
    reply_digest: Digest
    result: Any
    sender: int
    sig: Signature

    tag = "signed-reply"
    covers = ("seqno", "view", "timestamp", "client", "reply_digest",
              "sender")


@dataclass(frozen=True)
class SignedReplies:
    """Active -> client: ``t + 1`` matching signed replies (line 21)."""

    view: int
    shares: Tuple[SignedReplyShare, ...]


# ---------------------------------------------------------------------------
# Transport authenticator policies per message class
# ---------------------------------------------------------------------------

#: MAC-vector channels: the paper's HMAC-authenticated paths.
register(ReplyMsg, MAC_VECTOR)
register(PreChk, MAC_VECTOR)

#: Everything else embeds digital signatures in the payload (or forwards
#: signed material) -- the transport adds nothing.
for _cls in (Replicate, Prepare, CommitVote, FastPrepare, FastCommit,
             Suspect, ViewChange, VcFinal, VcConfirm, NewView,
             FaultAccusation, Chkpt, LazyChk, LazyCommit, FetchEntries,
             FetchReply, ReSend, SignedReplyShare, SignedReplies):
    register(_cls, NULL)
del _cls
