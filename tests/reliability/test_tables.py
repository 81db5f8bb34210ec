"""Tests regenerating the paper's Appendix D tables (5-8)."""

from repro.reliability.tables import (
    availability_cell,
    availability_table,
    consistency_cell,
    consistency_table,
    format_availability_table,
    format_consistency_table,
)


class TestTable5:
    """Nines of consistency, t = 1 (spot values straight from the paper)."""

    def test_first_row(self):
        # 9benign=3, 9correct=2, 9synchrony=2 -> CFT 2, XPaxos 3, BFT 5.
        row = consistency_cell(1, 3, 2, 2)
        assert (row.cft, row.xpaxos, row.bft) == (2, 3, 5)

    def test_benign4_correct3_sync3(self):
        # Table 5: 9benign=4, 9correct=3, 9synchrony=3 -> XPaxos 5, BFT 7.
        row = consistency_cell(1, 4, 3, 3)
        assert (row.cft, row.xpaxos, row.bft) == (3, 5, 7)

    def test_benign5_correct4_sync4(self):
        row = consistency_cell(1, 5, 4, 4)
        assert (row.cft, row.xpaxos, row.bft) == (4, 7, 9)

    def test_benign8_correct7_sync6(self):
        # Last row of Table 5: 9benign=8, 9correct=7, sync 2..6 reads
        # "9 10 11 12 13"; the sync=6 cell is 13.
        row = consistency_cell(1, 8, 7, 6)
        assert (row.cft, row.xpaxos, row.bft) == (7, 13, 15)

    def test_benign6_correct3_row(self):
        # Table 5 row 9benign=6, 9correct=3 reads "7 7 8 8 8" over
        # sync 2..6: the 9sync = 9correct cell loses one nine
        # (the paper's '9correct - 1' special case).
        values = [consistency_cell(1, 6, 3, ns).xpaxos
                  for ns in (2, 3, 4, 5, 6)]
        assert values == [7, 7, 8, 8, 8]

    def test_grid_shape(self):
        rows = consistency_table(1)
        # 9benign in 3..8, 9correct in 2..(9benign-1), 9sync in 2..6.
        expected = sum((nb - 2) * 5 for nb in range(3, 9))
        assert len(rows) == expected


class TestTable6:
    """Nines of consistency, t = 2."""

    def test_first_row(self):
        # 9benign=3, 9correct=2, 9sync=2 -> CFT 2, XPaxos 4, BFT 7.
        row = consistency_cell(2, 3, 2, 2)
        assert (row.cft, row.xpaxos, row.bft) == (2, 4, 7)

    def test_benign4_correct3_sync3(self):
        # Table 6: -> CFT 3, XPaxos 7, BFT 10.
        row = consistency_cell(2, 4, 3, 3)
        assert (row.cft, row.xpaxos, row.bft) == (3, 7, 10)

    def test_benign5_correct4_sync4(self):
        row = consistency_cell(2, 5, 4, 4)
        assert (row.cft, row.xpaxos, row.bft) == (4, 10, 13)

    def test_t2_adds_more_nines_than_t1(self):
        t1 = consistency_cell(1, 5, 4, 4)
        t2 = consistency_cell(2, 5, 4, 4)
        assert t2.xpaxos > t1.xpaxos


class TestTable7:
    """Nines of availability, t = 1."""

    def test_avail2_row(self):
        # Table 7 row 9avail=2 reads: CFT "2 3 3 3 3 3" over
        # 9benign 3..8, BFT 3, XPaxos 3.
        cfts = [availability_cell(1, 2, nb).cft for nb in range(3, 9)]
        assert cfts == [2, 3, 3, 3, 3, 3]
        for nb in range(3, 9):
            row = availability_cell(1, 2, nb)
            assert (row.bft, row.xpaxos) == (3, 3)

    def test_avail3_row(self):
        # Table 7 row 9avail=3 reads: CFT "3 4 5 5 5" over 9benign 4..8,
        # BFT 5, XPaxos 5.
        cfts = [availability_cell(1, 3, nb).cft for nb in range(4, 9)]
        assert cfts == [3, 4, 5, 5, 5]
        for nb in range(4, 9):
            row = availability_cell(1, 3, nb)
            assert (row.bft, row.xpaxos) == (5, 5)

    def test_avail6_benign7(self):
        row = availability_cell(1, 6, 7)
        assert row.xpaxos == 11
        assert row.bft == 11

    def test_grid_shape(self):
        rows = availability_table(1)
        expected = sum(8 - na for na in range(2, 7))
        assert len(rows) == expected


class TestTable8:
    """Nines of availability, t = 2."""

    def test_avail2_benign3(self):
        # Table 8 first cell: CFT 2, BFT 4, XPaxos 5.
        row = availability_cell(2, 2, 3)
        assert (row.cft, row.bft, row.xpaxos) == (2, 4, 5)

    def test_avail2_row_cft(self):
        # Table 8 row 9avail=2 CFT column: "2 3 4 4 4 5" over benign 3..8.
        cfts = [availability_cell(2, 2, nb).cft for nb in range(3, 9)]
        assert cfts == [2, 3, 4, 4, 4, 5]

    def test_avail3_benign4(self):
        row = availability_cell(2, 3, 4)
        assert (row.cft, row.bft, row.xpaxos) == (3, 7, 8)

    def test_avail6_benign7(self):
        row = availability_cell(2, 6, 7)
        assert (row.bft, row.xpaxos) == (16, 17)

    def test_xpaxos_always_at_least_bft(self):
        for row in availability_table(2):
            assert row.xpaxos >= row.bft


class TestFormatting:
    def test_consistency_table_renders(self):
        text = format_consistency_table(consistency_table(1)[:5])
        assert "XPaxos" in text
        assert len(text.splitlines()) == 7

    def test_availability_table_renders(self):
        text = format_availability_table(availability_table(1)[:3])
        assert "9avail" in text
