"""Every wire message of XPaxos.

Naming follows the paper's pseudocode (Appendix B).  All inter-replica
messages carry digital signatures *in their payloads* and therefore need
no transport authenticator (:data:`~repro.crypto.authenticators.NULL`).
The two MAC-authenticated channels -- client-bound replies and the
active-to-active ``PRECHK`` exchange -- use the transport-level
:data:`~repro.crypto.authenticators.MAC_VECTOR` policy: the per-receiver
MAC is stamped by the network at delivery fan-out time instead of being
embedded in the payload, so these fan-outs ride the multicast fast path.

Signed payloads are tuples built by the ``*_payload`` helpers so that signer
and verifier hash exactly the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.crypto.authenticators import MAC_VECTOR, NULL, register
from repro.crypto.primitives import Digest, Signature, digest_of, memoized
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request

# ---------------------------------------------------------------------------
# Signed-payload constructors (the tuples that actually get hashed/signed)
# ---------------------------------------------------------------------------


def batch_digest_of(batch: Batch) -> Digest:
    """The paper's ``D(req)`` lifted to batches.

    Covers the full signed body of every request (operation, timestamp,
    client) -- not just the identifiers -- so two different operations can
    never share a digest.
    """
    return batch.bodies_digest()


def prepare_payload(batch_digest: Digest, seqno: int, view: int) -> tuple:
    """``<PREPARE, D(req), sn, i>`` -- signed by the primary (t >= 2)."""
    return ("prepare", batch_digest, seqno, view)


def commit_payload(batch_digest: Digest, seqno: int, view: int,
                   sender: int) -> tuple:
    """``<COMMIT, D(req), sn, i>`` -- signed by a follower (t >= 2)."""
    return ("commit", batch_digest, seqno, view, sender)


def commit0_payload(batch_digest: Digest, seqno: int, view: int) -> tuple:
    """``m0`` of the t = 1 fast path -- the primary's signed commit."""
    return ("commit0", batch_digest, seqno, view)


def commit1_payload(batch_digest: Digest, seqno: int, view: int,
                    reply_digest: Digest) -> tuple:
    """``m1`` of the t = 1 fast path -- the follower's signed commit, also
    covering the digest of the replies it computed."""
    return ("commit1", batch_digest, seqno, view, reply_digest)


def suspect_payload(view: int, sender: int) -> tuple:
    """``<SUSPECT, i, sj>``."""
    return ("suspect", view, sender)


def view_change_payload(new_view: int, sender: int,
                        commit_entries: tuple,
                        prepare_entries: Optional[tuple],
                        checkpoint_digest: Optional[Digest]) -> tuple:
    """``<VIEW-CHANGE, i+1, sj, CommitLog [, PrepareLog]>``."""
    return ("view-change", new_view, sender, commit_entries,
            prepare_entries, checkpoint_digest)


def vc_final_payload(new_view: int, sender: int, vcset_digest: Digest) -> tuple:
    """``<VC-FINAL, i+1, sj, VCSet>`` -- signs the digest of the set."""
    return ("vc-final", new_view, sender, vcset_digest)


def vc_confirm_payload(new_view: int, sender: int,
                       vcset_digest: Digest) -> tuple:
    """``<VC-CONFIRM, i+1, D(VCSet)>`` (fault-detection mode)."""
    return ("vc-confirm", new_view, sender, vcset_digest)


def new_view_payload(new_view: int, entries_digest: Digest) -> tuple:
    """``<NEW-VIEW, i+1, PrepareLog>`` -- signs the digest of the log."""
    return ("new-view", new_view, entries_digest)


def chkpt_payload(seqno: int, view: int, state_digest: bytes,
                  sender: int) -> tuple:
    """``<CHKPT, sn, i, D(st), sj>``."""
    return ("chkpt", seqno, view, state_digest, sender)


def signed_reply_payload(seqno: int, view: int, timestamp: int,
                         client: int, reply_digest: Digest,
                         sender: int) -> tuple:
    """Per-replica signed reply used by the retransmission protocol."""
    return ("signed-reply", seqno, view, timestamp, client, reply_digest,
            sender)


# ---------------------------------------------------------------------------
# Common case
# ---------------------------------------------------------------------------
#
# The four signed messages below each carry the digest of the payload
# their signature covers (``payload_digest``): derived from the message's
# own fields on first use, or seeded by ``signed`` -- the constructor the
# honest signer uses, where the signature was made over exactly those
# fields a line earlier.  A message built any other way (a forged or
# replayed signature attached to different fields) starts unseeded, so
# verification always compares against what the fields really hash to.

#: A node's signing facade (``ReplicaBase.sign``): charges CPU and signs.
Signer = Callable[[Any], Signature]


def _signed(cls: Any, sign: Signer, payload: tuple, *fields: Any) -> Any:
    """``cls(*fields, sign(payload))`` with ``payload_digest`` seeded
    from the fresh signature.  Private to the ``signed`` constructors
    below, which build ``payload`` from the same ``fields``."""
    sig = sign(payload)
    message = cls(*fields, sig)
    cls.payload_digest.seed(message, sig.digest)
    return message


@dataclass(frozen=True)
class Replicate:
    """Client -> primary: a signed request (``<REPLICATE, op, ts, c>``)."""

    request: Request


@dataclass(frozen=True)
class Prepare:
    """Primary -> followers (t >= 2): ``<req, prep>``."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest
    primary_sig: Signature

    @memoized
    def payload_digest(self) -> Digest:
        """Digest of the ``prepare`` payload ``primary_sig`` must cover,
        shared by every follower verifying this object."""
        return digest_of(prepare_payload(self.batch_digest, self.seqno,
                                         self.view))

    @classmethod
    def signed(cls, view: int, seqno: int, batch: Batch,
               batch_digest: Digest, sign: Signer) -> "Prepare":
        """Build the message around the primary's fresh signature."""
        return _signed(cls, sign, prepare_payload(batch_digest, seqno, view),
                       view, seqno, batch, batch_digest)


@dataclass(frozen=True)
class CommitVote:
    """Follower -> active replicas (t >= 2): a signed commit message."""

    view: int
    seqno: int
    batch_digest: Digest
    sender: int
    sig: Signature

    @memoized
    def payload_digest(self) -> Digest:
        """Digest of the ``commit`` payload ``sig`` must cover, shared by
        every active replica verifying this object."""
        return digest_of(commit_payload(self.batch_digest, self.seqno,
                                        self.view, self.sender))

    @classmethod
    def signed(cls, view: int, seqno: int, batch_digest: Digest,
               sender: int, sign: Signer) -> "CommitVote":
        """Build the vote around the follower's fresh signature."""
        return _signed(cls, sign,
                       commit_payload(batch_digest, seqno, view, sender),
                       view, seqno, batch_digest, sender)


@dataclass(frozen=True)
class FastPrepare:
    """Primary -> follower (t = 1): ``<req, m0>``."""

    view: int
    seqno: int
    batch: Batch
    batch_digest: Digest
    m0: Signature

    @memoized
    def payload_digest(self) -> Digest:
        """Digest of the ``commit0`` payload ``m0`` must cover."""
        return digest_of(commit0_payload(self.batch_digest, self.seqno,
                                         self.view))

    @classmethod
    def signed(cls, view: int, seqno: int, batch: Batch,
               batch_digest: Digest, sign: Signer) -> "FastPrepare":
        """Build the message around the primary's fresh ``m0``."""
        return _signed(cls, sign, commit0_payload(batch_digest, seqno, view),
                       view, seqno, batch, batch_digest)


@dataclass(frozen=True)
class FastCommit:
    """Follower -> primary (t = 1): ``m1`` plus the reply digest it covers."""

    view: int
    seqno: int
    batch_digest: Digest
    reply_digest: Digest
    m1: Signature

    @memoized
    def payload_digest(self) -> Digest:
        """Digest of the ``commit1`` payload ``m1`` must cover.  The
        primary embeds this object in the reply to every client of the
        batch, so primary and clients share one encode."""
        return digest_of(commit1_payload(self.batch_digest, self.seqno,
                                         self.view, self.reply_digest))

    @classmethod
    def signed(cls, view: int, seqno: int, batch_digest: Digest,
               reply_digest: Digest, sign: Signer) -> "FastCommit":
        """Build the message around the follower's fresh ``m1``."""
        return _signed(cls, sign,
                       commit1_payload(batch_digest, seqno, view,
                                       reply_digest),
                       view, seqno, batch_digest, reply_digest)


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
class Suspect:
    """``<SUSPECT, i, sj>`` broadcast to all replicas (and to clients that
    asked for retransmission)."""

    view: int
    sender: int
    sig: Signature


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
class ViewChange:
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


@dataclass(frozen=True)
class VcFinal:
    """``<VC-FINAL, i+1, sj, VCSet>``."""

    new_view: int
    sender: int
    vcset: Tuple[ViewChange, ...]
    vcset_digest: Digest
    sig: Signature


@dataclass(frozen=True)
class VcConfirm:
    """``<VC-CONFIRM, i+1, D(VCSet)>`` (fault-detection mode only)."""

    new_view: int
    sender: int
    vcset_digest: Digest
    sig: Signature


@dataclass(frozen=True)
class NewView:
    """``<NEW-VIEW, i+1, PrepareLog>`` from the new primary."""

    new_view: int
    entries: Tuple[PrepareEntry, ...]
    checkpoint: Optional[CheckpointProof]
    sig: Signature


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
class Chkpt:
    """``<CHKPT, sn, i, D(st), sj>`` signed (the durable proof)."""

    seqno: int
    view: int
    state_digest: bytes
    sender: int
    sig: Signature


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
class SignedReplyShare:
    """Active -> active: one replica's signed reply for a retransmitted
    request (Algorithm 4, lines 16-17)."""

    view: int
    seqno: int
    timestamp: int
    client: int
    reply_digest: Digest
    result: Any
    sender: int
    sig: Signature


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
