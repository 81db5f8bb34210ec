"""Checkpointing (Section 4.5.1): PRECHK / CHKPT among the active
replicas, LAZYCHK to the passive ones, and the one place a stable
checkpoint is validated and adopted.

:class:`Checkpointer` is handed the replica and owns the per-checkpoint
vote tables.  The proof itself (``replica.stable_checkpoint``) stays on
the replica, where the view change and state retrieval read it; this
class is its only writer.  It reaches the core through ``commit_log`` /
``prepare_log``, ``restore_to`` and ``execute_ready``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.crypto.primitives import replica_principal
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.signed import verify_signed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.xpaxos.replica import XPaxosReplica


class Checkpointer:
    """Takes, proves, adopts and propagates stable checkpoints."""

    def __init__(self, replica: "XPaxosReplica") -> None:
        self.replica = replica
        self._prechk_votes: Dict[int, Dict[int, bytes]] = {}
        #: The application as it was right after each slot we voted on.
        self._snapshots: Dict[int, Any] = {}
        self._chkpt_sigs: Dict[int, Dict[int, msg.Chkpt]] = {}
        replica._handlers.update({
            msg.PreChk: self._on_prechk,
            msg.Chkpt: self._on_chkpt,
            msg.LazyChk: self._on_lazychk,
        })

    def recovered(self) -> None:
        """Forgets nothing: snapshots are as durable as the application
        they copy, and a checkpoint whose votes straddle the crash
        completes when the rest arrive."""

    def maybe_checkpoint(self, seqno: int) -> None:
        """Slot ``seqno`` executed: an active replica starts a checkpoint
        every ``checkpoint_period`` slots.  The snapshot a proof of it
        will carry is taken here, beside the digest it is voted under: by
        the time the CHKPT quorum forms the pipeline has executed on."""
        replica = self.replica
        if seqno % replica.config.checkpoint_period != 0:
            return
        if not replica.is_active:
            return
        state_digest = replica.app.state_digest()
        self._snapshots[seqno] = replica.app.snapshot()
        prechk = msg.PreChk(seqno, replica.view, state_digest,
                            replica.replica_id)
        # 44 payload bytes + the 20-byte transport MAC = the 64 bytes the
        # embedded-MAC encoding used to put on the wire.
        replica._fanout_with_self(
            replica._active_names(), prechk, 44,
            lambda: self._record_prechk(seqno, replica.replica_id,
                                        state_digest))

    def _on_prechk(self, src: str, m: msg.PreChk) -> None:
        # The channel MAC was stamped and verified by the transport
        # (MAC_VECTOR policy): a forged or tampered PRECHK never gets here.
        replica = self.replica
        if m.view != replica.view or not replica.is_active:
            return
        if src != replica.replica_name(m.sender):
            return  # a replica cannot inject PreChk votes for a peer
        self._record_prechk(m.seqno, m.sender, m.state_digest)

    def _record_prechk(self, seqno: int, sender: int,
                       state_digest: bytes) -> None:
        replica = self.replica
        me = replica.replica_id
        quorum = replica.config.t + 1
        votes = self._prechk_votes.setdefault(seqno, {})
        votes[sender] = state_digest
        if me not in votes or len(votes) < quorum:
            return
        my_digest = votes[me]
        if sum(1 for d in votes.values() if d == my_digest) < quorum:
            return
        if me in self._chkpt_sigs.get(seqno, ()):
            return
        chkpt = msg.Chkpt.signed(
            replica.sign, seqno=seqno, view=replica.view,
            state_digest=my_digest, sender=me)
        replica._fanout_with_self(replica._active_names(), chkpt, 96,
                                  lambda: self._record_chkpt(chkpt))

    def _on_chkpt(self, src: str, m: msg.Chkpt) -> None:
        replica = self.replica
        if m.view != replica.view or not replica.is_active:
            return
        if m.sender not in replica.groups.group(m.view) \
                or not verify_signed(replica, m):
            return
        self._record_chkpt(m)

    def _record_chkpt(self, m: msg.Chkpt) -> None:
        replica = self.replica
        quorum = replica.config.t + 1
        sigs = self._chkpt_sigs.setdefault(m.seqno, {})
        sigs[m.sender] = m
        matching = [c for c in sigs.values()
                    if c.state_digest == m.state_digest]
        if len(matching) < quorum:
            return
        stable = replica.stable_checkpoint
        if stable is not None and stable.seqno >= m.seqno:
            return
        if m.seqno not in self._snapshots:
            return  # signatures for a slot we never voted on ourselves
        proof = msg.CheckpointProof(
            seqno=m.seqno, view=m.view, state_digest=m.state_digest,
            sigs=tuple(c.sig for c in matching[:quorum]),
            snapshot=self._snapshots[m.seqno])
        self._adopt(proof)
        replica.multicast_authenticated(replica._passive_names(),
                                        msg.LazyChk(proof), size_bytes=512)

    def _on_lazychk(self, src: str, m: msg.LazyChk) -> None:
        # Modelled cost of checking the proof's signatures, paid whether
        # or not the checkpoint turns out to be news to us.
        for _ in m.proof.sigs:
            self.replica.cpu.charge_verify()
        if self.install(m.proof):
            self.replica.execute_ready()

    def proof_valid(self, proof: msg.CheckpointProof) -> bool:
        """Is ``proof`` signed by t + 1 distinct members of its view's
        synchronous group, each over this very (seqno, view, state digest)?

        The snapshot is not restored here: :meth:`install` checks it
        against ``state_digest`` where it is about to be used.
        """
        replica = self.replica
        members = {replica_principal(r): r
                   for r in replica.groups.group(proof.view)}
        signers = set()
        for sig in proof.sigs:
            signer = members.get(sig.signer)
            if signer is None or not replica.keystore.verify(
                    sig, msg.Chkpt.payload_of(
                        seqno=proof.seqno, view=proof.view,
                        state_digest=proof.state_digest, sender=signer)):
                return False
            signers.add(signer)
        return len(signers) >= replica.config.t + 1

    def install(self, proof: Optional[msg.CheckpointProof]) -> bool:
        """Adopt a stable checkpoint newer than ours (LAZYCHK, FETCH-REPLY
        and NEW-VIEW all land here): verify the proof, restore from its
        snapshot only if it is ahead of our execution horizon, and
        truncate both logs either way -- this is what garbage-collects a
        replica that takes no part in checkpointing (a passive one kept up
        to date by lazy replication).  A proof that does not verify, or
        whose snapshot does not restore to the state digest it proves,
        changes nothing.  False only for such a proof ahead of us."""
        replica = self.replica
        stable = replica.stable_checkpoint
        if proof is None \
                or (stable is not None and proof.seqno <= stable.seqno):
            return True
        if not self.proof_valid(proof):
            return proof.seqno <= replica.ex
        if not replica.restore_to(proof.seqno, proof.snapshot,
                                  proof.state_digest):
            return False
        self._adopt(proof)
        return True

    def _adopt(self, proof: msg.CheckpointProof) -> None:
        """``proof`` is the stable checkpoint: nothing at or below it is
        needed in either log, or of our own votes, any more."""
        replica = self.replica
        replica.stable_checkpoint = proof
        replica.commit_log.truncate_to(proof.seqno)
        replica.prepare_log.truncate_to(proof.seqno)
        for table in (self._prechk_votes, self._snapshots,
                      self._chkpt_sigs):
            for seqno in [sn for sn in table if sn <= proof.seqno]:
                del table[seqno]
