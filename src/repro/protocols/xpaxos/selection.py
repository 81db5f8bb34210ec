"""State selection at the end of a view change (Section 4.3.3): from the
VIEW-CHANGE messages of the VCSet, per sequence number the entry generated
in the highest view, above the newest stable checkpoint any of them
proves.  A pure function of the messages: :class:`ViewChanger` runs it on
every active replica of the new view, and a follower compares its result
with what the primary's NEW-VIEW offers.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.protocols.xpaxos import messages as msg
from repro.smr.log import CommitEntry, CommitLog


def select_state(vcset: Iterable[msg.ViewChange],
                 proof_valid: Callable[[msg.CheckpointProof], bool],
                 with_prepare_logs: bool,
                 ) -> Tuple[CommitLog, Optional[msg.CheckpointProof]]:
    """The selected entries and the checkpoint they sit on.  Under fault
    detection the reported prepare logs are considered too (Algorithm 5
    lines 12-20); ``proof_valid`` is ``Checkpointer.proof_valid``."""
    selection = CommitLog()
    best_checkpoint: Optional[msg.CheckpointProof] = None
    for vc in vcset:
        proof = vc.checkpoint
        if proof is not None \
                and (best_checkpoint is None
                     or proof.seqno > best_checkpoint.seqno) \
                and proof_valid(proof):
            best_checkpoint = proof
        for seqno, entry in vc.commit_entries:
            selection.put(seqno, selection.highest_view_entry(seqno, entry))
        if with_prepare_logs and vc.prepare_entries:
            for seqno, pentry in vc.prepare_entries:
                selection.put(seqno, selection.highest_view_entry(
                    seqno, CommitEntry(seqno, pentry.view, pentry.batch,
                                       (pentry.primary_sig,))))
    if best_checkpoint is not None:
        selection.truncate_to(best_checkpoint.seqno)
    return selection, best_checkpoint
