"""Tests for prepare/commit log containers."""

import pytest

from repro.crypto.primitives import KeyStore
from repro.smr.log import CommitEntry, CommitLog
from repro.smr.messages import Batch, Request


def entry(seqno, view=0):
    ks = KeyStore()
    batch = Batch((Request(op=seqno, timestamp=seqno, client=0),))
    sig = ks.sign("r0", ("e", seqno, view))
    return CommitEntry(seqno, view, batch, (sig,))


class TestSparseLog:
    def test_put_get(self):
        log = CommitLog()
        e = entry(1)
        log.put(1, e)
        assert log.get(1) is e
        assert 1 in log
        assert len(log) == 1

    def test_get_missing_returns_none(self):
        assert CommitLog().get(42) is None

    def test_end_tracks_highest(self):
        log = CommitLog()
        log.put(3, entry(3))
        log.put(7, entry(7))
        log.put(5, entry(5))
        assert log.end == 7

    def test_end_of_empty_log_is_low_water(self):
        log = CommitLog()
        assert log.end == 0
        log.put(5, entry(5))
        log.truncate_to(5)
        assert log.end == 5

    def test_items_in_order(self):
        log = CommitLog()
        for sn in (9, 2, 5):
            log.put(sn, entry(sn))
        assert [sn for sn, _ in log.items()] == [2, 5, 9]

    def test_truncate(self):
        log = CommitLog()
        for sn in range(1, 8):
            log.put(sn, entry(sn))
        removed = log.truncate_to(4)
        assert removed == 4
        assert log.low_water == 4
        assert log.get(4) is None
        assert log.get(5) is not None

    def test_put_below_low_water_ignored(self):
        log = CommitLog()
        log.put(5, entry(5))
        log.truncate_to(5)
        log.put(3, entry(3))
        assert log.get(3) is None

    def test_drop_models_data_loss(self):
        log = CommitLog()
        log.put(1, entry(1))
        log.drop(1)
        assert log.get(1) is None
        log.drop(1)  # idempotent

    def test_overwrite_same_slot(self):
        log = CommitLog()
        log.put(1, entry(1, view=0))
        replacement = entry(1, view=3)
        log.put(1, replacement)
        assert log.get(1).view == 3


class TestSelectionRule:
    def test_highest_view_wins(self):
        log = CommitLog()
        log.put(1, entry(1, view=2))
        other = entry(1, view=5)
        assert log.highest_view_entry(1, other) is other

    def test_own_entry_wins_on_tie_or_higher(self):
        log = CommitLog()
        mine = entry(1, view=5)
        log.put(1, mine)
        assert log.highest_view_entry(1, entry(1, view=5)) is mine
        assert log.highest_view_entry(1, entry(1, view=3)) is mine

    def test_missing_local_entry_yields_other(self):
        log = CommitLog()
        other = entry(1, view=0)
        assert log.highest_view_entry(1, other) is other

    def test_both_missing_yields_none(self):
        assert CommitLog().highest_view_entry(1, None) is None


class TestBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch(())

    def test_size_bytes_sums_requests(self):
        batch = Batch((
            Request(op=1, timestamp=1, client=0, size_bytes=100),
            Request(op=2, timestamp=2, client=0, size_bytes=28),
        ))
        assert batch.size_bytes == 128
        assert len(batch) == 2
