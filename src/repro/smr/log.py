"""Prepare logs and commit logs (the paper's ``PrepareLog`` / ``CommitLog``).

These structures are the heart of XPaxos's consistency argument: commit logs
carry the signed proofs that travel in view-change messages, and the
selection rule "highest view number wins per sequence number" (Section 4.3.3)
operates on them.  The baselines reuse the same containers with their own
proof types.

A log is a sparse map ``seqno -> entry`` with a low-water mark advanced by
checkpointing (discarding proofs below a stable checkpoint, Section 4.5.1).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

from repro.crypto.primitives import Signature, wire
from repro.smr.messages import Batch


@wire
class PrepareEntry:
    """One slot of a prepare log: the batch plus the primary's signed
    prepare (or, for t=1, the primary's signed commit) message."""

    seqno: int
    view: int
    batch: Batch
    primary_sig: Signature

    def __repr__(self) -> str:
        return f"PrepareEntry(sn{self.seqno} v{self.view})"


@wire
class CommitEntry:
    """One slot of a commit log: the batch plus the full proof.

    ``proof`` holds the signed commit messages -- for XPaxos, the primary's
    prepare signature plus the ``t`` follower commit signatures (t >= 2), or
    the ``(m0, m1)`` pair for t = 1.  The tuple is opaque to the container
    but is what fault detection verifies.
    """

    seqno: int
    view: int
    batch: Batch
    proof: Tuple[Signature, ...]

    def __repr__(self) -> str:
        return f"CommitEntry(sn{self.seqno} v{self.view})"


E = TypeVar("E")


class _SparseLog(Generic[E]):
    """Sparse ordered log with checkpoint truncation."""

    def __init__(self) -> None:
        self._entries: Dict[int, E] = {}
        self._low_water = 0  # entries <= low_water have been discarded

    def __contains__(self, seqno: int) -> bool:
        return seqno in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, seqno: int) -> Optional[E]:
        """Entry at ``seqno`` or None."""
        return self._entries.get(seqno)

    def put(self, seqno: int, entry: E) -> None:
        """Store ``entry`` at ``seqno`` (overwrites, e.g. after view change)."""
        if seqno <= self._low_water:
            return  # below a stable checkpoint; proof no longer needed
        self._entries[seqno] = entry

    def drop(self, seqno: int) -> None:
        """Remove one entry (fault injection: data-loss faults)."""
        self._entries.pop(seqno, None)

    def truncate_to(self, seqno: int) -> int:
        """Discard all entries at or below ``seqno`` (checkpoint).

        Returns the number of discarded entries.
        """
        stale = [sn for sn in self._entries if sn <= seqno]
        for sn in stale:
            del self._entries[sn]
        self._low_water = max(self._low_water, seqno)
        return len(stale)

    @property
    def low_water(self) -> int:
        """Highest checkpointed sequence number."""
        return self._low_water

    @property
    def end(self) -> int:
        """Highest occupied sequence number (the paper's ``End(log)``),
        or the low-water mark when empty."""
        return max(self._entries, default=self._low_water)

    def items(self) -> Iterator[Tuple[int, E]]:
        """Iterate ``(seqno, entry)`` in sequence order."""
        for sn in sorted(self._entries):
            yield sn, self._entries[sn]


class PrepareLog(_SparseLog[PrepareEntry]):
    """The paper's ``PrepareLog_sj``."""


class CommitLog(_SparseLog[CommitEntry]):
    """The paper's ``CommitLog_sj``."""

    def highest_view_entry(self, seqno: int,
                           other: Optional[CommitEntry]) -> Optional[CommitEntry]:
        """Pick the entry with the higher view between ours and ``other``
        (the Section 4.3.3 selection rule)."""
        mine = self.get(seqno)
        if mine is None:
            return other
        if other is None or mine.view >= other.view:
            return mine
        return other
