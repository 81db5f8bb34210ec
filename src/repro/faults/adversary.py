"""Non-crash (Byzantine) adversary behaviours for XPaxos replicas.

An adversary object is attached to a replica via ``replica.byzantine``; the
replica consults it when emitting view-change messages, which is where the
paper's dangerous faults live (Section 4.4): a faulty replica cannot forge
signatures, so its only consistency-threatening moves are *omissions* (data
loss from its logs) and *replays of stale state*.

These adversaries drive the fault-detection tests (strong completeness) and
the anarchy experiments of the safety suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Set

from repro.smr.log import PrepareEntry

from repro.protocols.xpaxos import messages as msg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.xpaxos.replica import XPaxosReplica


class Adversary:
    """Base adversary: behaves correctly (identity mutation)."""

    def mutate_view_change(self, replica: "XPaxosReplica",
                           vc: msg.ViewChange) -> msg.ViewChange:
        """Rewrite the outgoing view-change message. Default: unchanged."""
        return vc


class DataLossAdversary(Adversary):
    """Drops entries above ``keep_upto`` from the reported logs.

    This is the paper's canonical "data loss" fault (Section 4.4): a
    non-crash-faulty replica loses part of its commit log prior to a view
    change.  Outside anarchy this must be detected by FD; in anarchy it can
    violate consistency.
    """

    def __init__(self, keep_upto: int = 0,
                 lose_prepare_log: bool = True) -> None:
        self.keep_upto = keep_upto
        self.lose_prepare_log = lose_prepare_log

    def mutate_view_change(self, replica: "XPaxosReplica",
                           vc: msg.ViewChange) -> msg.ViewChange:
        commit_entries = tuple(
            (sn, e) for sn, e in vc.commit_entries if sn <= self.keep_upto)
        prepare_entries = vc.prepare_entries
        if prepare_entries is not None and self.lose_prepare_log:
            prepare_entries = tuple(
                (sn, e) for sn, e in prepare_entries
                if sn <= self.keep_upto)
        # Re-sign: the adversary owns its key, so the truncated message is
        # validly signed -- the *content* is the fault, not the signature.
        return vc.resigned(replica.sign, commit_entries=commit_entries,
                           prepare_entries=prepare_entries, checkpoint=None)


class StaleViewAdversary(Adversary):
    """Reports prepare-log entries re-stamped to an older view (fork-I)."""

    def __init__(self, stale_view: int = 0) -> None:
        self.stale_view = stale_view

    def mutate_view_change(self, replica: "XPaxosReplica",
                           vc: msg.ViewChange) -> msg.ViewChange:
        if vc.prepare_entries is None:
            return vc
        stale = tuple(
            (sn, PrepareEntry(e.seqno, self.stale_view, e.batch,
                              e.primary_sig))
            for sn, e in vc.prepare_entries)
        return vc.resigned(replica.sign, prepare_entries=stale,
                           prepare_view=self.stale_view, final_proof=None)


class SilentAdversary(Adversary):
    """Withholds the view-change message entirely (modelled as empty logs).

    Equivalent to a crash from the view-change's perspective, but the
    replica keeps running in the common case -- useful for testing the
    ``n - t`` + 2-Delta collection rule.
    """

    def mutate_view_change(self, replica: "XPaxosReplica",
                           vc: msg.ViewChange) -> msg.ViewChange:
        return vc.resigned(
            replica.sign, commit_entries=(), checkpoint=None,
            prepare_entries=None, prepare_view=0, final_proof=None)


class EquivocatingAdversary(Adversary):
    """A faulty *primary* that, during view change, reports only a chosen
    subset of slots -- the fork pattern of the Appendix A example
    (Figure 11), where a non-crash-faulty ``s0`` reports only ``r0``.
    """

    def __init__(self, report_only: Iterable[int]) -> None:
        self.report_only: Set[int] = set(report_only)

    def mutate_view_change(self, replica: "XPaxosReplica",
                           vc: msg.ViewChange) -> msg.ViewChange:
        commit_entries = tuple(
            (sn, e) for sn, e in vc.commit_entries
            if sn in self.report_only)
        prepare_entries = vc.prepare_entries
        if prepare_entries is not None:
            prepare_entries = tuple(
                (sn, e) for sn, e in prepare_entries
                if sn in self.report_only)
        return vc.resigned(replica.sign, commit_entries=commit_entries,
                           prepare_entries=prepare_entries, checkpoint=None)
