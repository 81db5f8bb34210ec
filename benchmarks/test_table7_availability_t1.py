"""Table 7: nines of availability for CFT, BFT, XPaxos at t = 1."""

from repro.reliability.tables import (
    availability_table,
    format_availability_table,
)


def test_table7(benchmark):
    rows = benchmark.pedantic(lambda: availability_table(1), rounds=1,
                              iterations=1)
    print("\n=== Table 7: nines of availability (t = 1) ===")
    print(format_availability_table(rows))

    by_key = {(r.nines_available, r.nines_benign): r for r in rows}

    # The paper's rows, column by column.
    assert [by_key[(2, nb)].cft for nb in range(3, 9)] == \
        [2, 3, 3, 3, 3, 3]
    assert [by_key[(3, nb)].cft for nb in range(4, 9)] == [3, 4, 5, 5, 5]
    assert [by_key[(4, nb)].cft for nb in range(5, 9)] == [4, 5, 6, 7]
    assert [by_key[(5, nb)].cft for nb in range(6, 9)] == [5, 6, 7]
    assert [by_key[(6, nb)].cft for nb in range(7, 9)] == [6, 7]

    for row in rows:
        # Section 6.2.2: XPaxos and BFT tie at t = 1 with 2*9avail - 1.
        assert row.xpaxos == row.bft == 2 * row.nines_available - 1
        # XFT availability dominates CFT availability.
        assert row.xpaxos >= row.cft
        # The paper's gain formula: max(2*9avail - 9benign, 0).
        gain = max(2 * row.nines_available - row.nines_benign, 0)
        assert row.xpaxos - row.cft == gain, row
