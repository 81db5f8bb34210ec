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
on it (docs/authenticators.md, "Signed payloads").  Every class states
its modelled size, ``wire_bytes``, as the baselines' do
(docs/execution.md, "Modelled sizes").
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Optional, Tuple

from repro.common.errors import ProtocolViolation
from repro.crypto.authenticators import MAC_VECTOR, NULL, register
from repro.crypto.primitives import Digest, Signature, digest_of, wire
from repro.protocols.xpaxos.signed import Signed
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request


def batch_digest_of(batch: Batch) -> Digest:
    """The paper's ``D(req)`` lifted to batches.

    Covers the full signed body of every request (operation, timestamp,
    client) -- not just the identifiers -- so two different operations can
    never share a digest.  A batch holding an operation the canonical
    encoder refuses has none: no correct replica orders one (the primary
    drops its request), so it raises :class:`ProtocolViolation`, which
    ``on_message`` turns into suspecting the view.
    """
    try:
        return batch.bodies_digest
    except TypeError:
        raise ProtocolViolation("batch cannot be digested") from None


# ---------------------------------------------------------------------------
# Common case
# ---------------------------------------------------------------------------


@register(NULL)
class Replicate:
    """Client -> primary: a signed request (``<REPLICATE, op, ts, c>``)."""

    request: Request

    wire_bytes = property(attrgetter("request.size_bytes"))


@register(NULL)
class Prepare(Signed):
    """Primary -> followers (t >= 2): ``<req, prep>``, the primary's
    signed ``<PREPARE, D(req), sn, i>``."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest
    primary_sig: Signature

    wire_bytes = property(attrgetter("batch.size_bytes"))
    tag = "prepare"
    covers = ("batch_digest", "seqno", "view")
    signature_field = "primary_sig"

    def signer(self, groups: Any) -> int:
        return groups.primary(self.view)


@register(NULL)
class CommitVote(Signed):
    """Follower -> active replicas (t >= 2): its signed
    ``<COMMIT, D(req), sn, i>``."""

    view: int
    seqno: int
    batch_digest: Digest
    sender: int
    sig: Signature

    wire_bytes = 64
    tag = "commit"
    covers = ("batch_digest", "seqno", "view", "sender")


@register(NULL)
class FastPrepare(Signed):
    """Primary -> follower (t = 1): ``<req, m0>``, ``m0`` being the
    primary's signed commit."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest
    m0: Signature

    wire_bytes = property(attrgetter("batch.size_bytes"))
    tag = "commit0"
    covers = ("batch_digest", "seqno", "view")
    signature_field = "m0"

    def signer(self, groups: Any) -> int:
        return groups.primary(self.view)


@register(NULL)
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

    wire_bytes = 96
    tag = "commit1"
    covers = ("batch_digest", "seqno", "view", "reply_digest")
    signature_field = "m1"

    def signer(self, groups: Any) -> int:
        return groups.followers(self.view)[0]


@register(MAC_VECTOR)
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
    wire_bytes: int = 0


# ---------------------------------------------------------------------------
# View change
# ---------------------------------------------------------------------------


@register(NULL)
class Suspect(Signed):
    """``<SUSPECT, i, sj>`` broadcast to all replicas (and to clients that
    asked for retransmission)."""

    view: int
    sender: int
    sig: Signature

    wire_bytes = 48
    tag = "suspect"
    covers = ("view", "sender")


@wire
class CheckpointProof:
    """A stable checkpoint: sequence number, state digest, t+1 signatures,
    and the state snapshot used for state transfer."""

    seqno: int
    view: int
    state_digest: bytes
    sigs: Tuple[Signature, ...]
    snapshot: Any


@register(NULL)
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
        return super(ViewChange, cls).payload_of(**fields)

    header_bytes = 128
    #: The checkpoint is not counted.
    wire_bytes = property(lambda m: m.header_bytes + sum(
        e.batch.size_bytes + 128 for _, e in m.commit_entries) + sum(
        e.batch.size_bytes + 64 for _, e in m.prepare_entries or ()))


@register(NULL)
class VcFinal(Signed):
    """``<VC-FINAL, i+1, sj, VCSet>``: the signature covers the digest of
    the set, which the receiver compares with ``digest_of(vcset)``."""

    new_view: int
    sender: int
    vcset: Tuple[ViewChange, ...]
    vcset_digest: Digest
    sig: Signature

    wire_bytes = 256  # nominal: the VIEW-CHANGEs it relays are not counted
    tag = "vc-final"
    covers = ("new_view", "sender", "vcset_digest")


@register(NULL)
class VcConfirm(Signed):
    """``<VC-CONFIRM, i+1, D(VCSet)>`` (fault-detection mode only)."""

    new_view: int
    sender: int
    vcset_digest: Digest
    sig: Signature

    wire_bytes = 96
    tag = "vc-confirm"
    covers = ("new_view", "sender", "vcset_digest")


@register(NULL)
class NewView(Signed):
    """``<NEW-VIEW, i+1, PrepareLog>`` from the new primary.  The
    checkpoint proof certifies itself and stays outside the signature."""

    new_view: int
    entries: Tuple[PrepareEntry, ...]
    checkpoint: Optional[CheckpointProof]
    sig: Signature

    wire_bytes = 1024  # nominal: entries and checkpoint are not counted
    tag = "new-view"
    covers = ("new_view", "entries")

    def signer(self, groups: Any) -> int:
        return groups.primary(self.new_view)


# ---------------------------------------------------------------------------
# Fault detection accusations (Algorithm 6)
# ---------------------------------------------------------------------------


@register(NULL)
class FaultAccusation:
    """``<STATE-LOSS | FORK-I | FORK-II, ...>`` broadcast to all replicas."""

    kind: str  # "state-loss" | "fork-i" | "fork-ii"
    accused: int
    seqno: int
    view: int
    evidence: Any

    wire_bytes = 256


# ---------------------------------------------------------------------------
# Checkpointing and lazy replication (Section 4.5)
# ---------------------------------------------------------------------------


@register(MAC_VECTOR)
class PreChk:
    """``<PRECHK, sn, i, D(st), sj>`` on the cheap active-to-active
    MAC channel; the per-receiver MAC is stamped by the transport."""

    seqno: int
    view: int
    state_digest: bytes
    sender: int

    # 44 payload bytes + the 20-byte transport MAC = the 64 bytes the
    # embedded-MAC encoding used to put on the wire.
    wire_bytes = 44


@register(NULL)
class Chkpt(Signed):
    """``<CHKPT, sn, i, D(st), sj>`` signed (the durable proof)."""

    seqno: int
    view: int
    state_digest: bytes
    sender: int
    sig: Signature

    wire_bytes = 96
    tag = "chkpt"
    covers = ("seqno", "view", "state_digest", "sender")


@register(NULL)
class LazyChk:
    """``<LAZYCHK, chkProof>`` pushed to passive replicas."""

    proof: CheckpointProof

    wire_bytes = 512


@register(NULL)
class LazyCommit:
    """Lazy replication of one commit-log entry to a passive replica."""

    view: int
    seqno: int
    entry: CommitEntry

    wire_bytes = property(attrgetter("entry.batch.size_bytes"))


@register(NULL)
class FetchEntries:
    """Passive/recovering replica -> active replica: request the committed
    entries in ``[from_seqno, to_seqno]`` (state retrieval, Section 4.5.2:
    a replica behind the lazy stream "could only retrieve the missing
    state from others")."""

    from_seqno: int
    to_seqno: int
    sender: int

    wire_bytes = 48


@register(NULL)
class FetchReply:
    """Active replica -> requester: the requested commit-log entries plus
    the responder's stable checkpoint (for requests below the log's
    low-water mark)."""

    entries: Tuple[CommitEntry, ...]
    checkpoint: Optional[CheckpointProof]

    header_bytes = 64
    #: The header and the batches; the checkpoint is not counted.
    wire_bytes = property(lambda m: m.header_bytes + sum(
        e.batch.size_bytes for e in m.entries))


# ---------------------------------------------------------------------------
# Request retransmission (Algorithm 4)
# ---------------------------------------------------------------------------


@register(NULL)
class ReSend:
    """Client -> all active replicas after its timer expires."""

    request: Request

    wire_bytes = property(attrgetter("request.size_bytes"))


@register(NULL)
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

    wire_bytes = 96
    tag = "signed-reply"
    covers = ("seqno", "view", "timestamp", "client", "reply_digest",
              "sender")


@register(NULL)
class SignedReplies:
    """Active -> client: ``t + 1`` matching signed replies (line 21)."""

    view: int
    shares: Tuple[SignedReplyShare, ...]

    wire_bytes = 256
