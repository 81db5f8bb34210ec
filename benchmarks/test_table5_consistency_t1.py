"""Table 5: nines of consistency for CFT, XPaxos, BFT at t = 1."""

from repro.reliability.tables import (
    consistency_table,
    format_consistency_table,
)


def test_table5(benchmark):
    rows = benchmark.pedantic(lambda: consistency_table(1), rounds=1,
                              iterations=1)
    print("\n=== Table 5: nines of consistency (t = 1) ===")
    print(format_consistency_table(rows))

    by_key = {(r.nines_benign, r.nines_correct, r.nines_synchrony): r
              for r in rows}

    # Spot values straight from the paper's Table 5.
    assert (by_key[(3, 2, 2)].cft, by_key[(3, 2, 2)].xpaxos,
            by_key[(3, 2, 2)].bft) == (2, 3, 5)
    assert by_key[(4, 2, 2)].xpaxos == 4
    assert by_key[(4, 3, 3)].xpaxos == 5
    assert by_key[(5, 4, 4)].xpaxos == 7
    assert by_key[(6, 5, 5)].xpaxos == 9
    assert by_key[(8, 7, 6)].xpaxos == 13
    assert by_key[(8, 7, 6)].bft == 15

    # Structural invariants across the full grid.
    for row in rows:
        assert row.cft == row.nines_benign - 1       # the rule of thumb
        assert row.xpaxos >= row.cft                  # XFT dominates CFT
        assert row.xpaxos <= row.bft                  # in nines, at t=1

    # The paper's closed-form relation for the XPaxos-over-CFT gain:
    # 9correct - 1 when 9benign > 9sync and 9sync == 9correct, else
    # min(9sync, 9correct).
    for row in rows:
        if (row.nines_benign > row.nines_synchrony
                and row.nines_synchrony == row.nines_correct):
            expected_gain = row.nines_correct - 1
        else:
            expected_gain = min(row.nines_synchrony, row.nines_correct)
        assert row.xpaxos - row.cft == expected_gain, row
