"""Tests for the Section 6 reliability closed forms."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.reliability.models import (
    anarchy,
    fault_tolerance_table,
    nines_of,
    p_bft_available,
    p_bft_consistent,
    p_cft_available,
    p_cft_consistent,
    p_xft_available,
    p_xft_consistent,
)


def probability_from_nines(k):
    """``k`` nines -> ``1 - 10^-k``."""
    return 1.0 - 10.0 ** -k


class TestNines:
    def test_paper_example(self):
        assert nines_of(0.999) == 3  # the paper's own example

    def test_more_values(self):
        assert nines_of(0.9) == 1
        assert nines_of(0.99999) == 5
        assert nines_of(0.5) == 0

    def test_one_is_infinite(self):
        assert nines_of(1.0) == math.inf

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            nines_of(1.5)
        with pytest.raises(ConfigurationError):
            nines_of(-0.1)


class TestCftConsistency:
    def test_closed_form(self):
        assert p_cft_consistent(0.999, 3) == pytest.approx(0.999 ** 3)

    def test_rule_of_thumb_loses_one_nine(self):
        """Section 6.1: for n < 10, 9ofC(CFT) ~ 9benign - 1."""
        for nb in range(3, 9):
            p = probability_from_nines(nb)
            assert nines_of(p_cft_consistent(p, 3)) == nb - 1


class TestPaperExample1:
    """Section 6.1.1 Example 1: p_benign = 0.9999,
    p_correct = p_synchrony = 0.999."""

    def test_cft_gets_3_nines(self):
        assert nines_of(p_cft_consistent(0.9999, 3)) == 3

    def test_xpaxos_gets_5_nines(self):
        p = p_xft_consistent(0.9999, 0.999, 0.999, t=1)
        assert nines_of(p) == 5

    def test_bft_gets_7_nines(self):
        assert nines_of(p_bft_consistent(0.9999, t=1)) == 7


class TestPaperExample2:
    """Section 6.1.1 Example 2: p_benign = p_synchrony = 0.9999,
    p_correct = 0.999."""

    def test_cft_gets_3_nines(self):
        assert nines_of(p_cft_consistent(0.9999, 3)) == 3

    def test_xpaxos_gets_6_nines(self):
        p = p_xft_consistent(0.9999, 0.999, 0.9999, t=1)
        assert nines_of(p) == 6

    def test_bft_gets_7_nines(self):
        assert nines_of(p_bft_consistent(0.9999, t=1)) == 7


class TestXftVsBftCrossover:
    def test_t1_condition_p_available_vs_p_benign_1_5(self):
        """Section 6.1.2: for t = 1, XPaxos beats BFT consistency iff
        p_available > p_benign^1.5."""
        cases = [
            (0.9999, 0.9999, 0.99999),
            (0.999, 0.999, 0.9999),
            (0.99999, 0.9999, 0.9999),
        ]
        for p_benign, p_correct, p_synchrony in cases:
            p_available = p_correct * p_synchrony
            xft = p_xft_consistent(p_benign, p_correct, p_synchrony, t=1)
            bft = p_bft_consistent(p_benign, t=1)
            if p_available > p_benign ** 1.5:
                assert xft > bft, (p_benign, p_correct, p_synchrony)

    def test_xft_consistency_never_beats_bft_by_a_nine_at_t1(self):
        """The paper: even when XPaxos is 'slightly' better it does not
        materialize in additional nines."""
        for nb in range(3, 7):
            for nc in range(2, nb):
                for ns in range(2, 7):
                    xft = p_xft_consistent(
                        probability_from_nines(nb),
                        probability_from_nines(nc),
                        probability_from_nines(ns), t=1)
                    bft = p_bft_consistent(probability_from_nines(nb), t=1)
                    assert nines_of(xft) <= nines_of(bft)


class TestAvailability:
    def test_xpaxos_equals_bft_nines_at_t1(self):
        """Section 6.2.2: 9ofA(XPaxos_t1) = 9ofA(BFT_t1) = 2*9avail - 1."""
        for na in range(2, 7):
            p = probability_from_nines(na)
            x = nines_of(p_xft_available(p, t=1))
            b = nines_of(p_bft_available(p, t=1))
            assert x == b == 2 * na - 1

    def test_xpaxos_one_more_nine_than_bft_at_t2(self):
        """Section 6.2.2: 9ofA(XPaxos_t2) = 9ofA(BFT_t2) + 1 =
        3*9avail - 1."""
        from repro.reliability.models import (
            epsilon_from_nines,
            nines_of_failure,
            q_bft_available,
            q_xft_available,
        )

        for na in range(2, 7):
            eps = epsilon_from_nines(na)
            x = nines_of_failure(q_xft_available(eps, t=2))
            b = nines_of_failure(q_bft_available(eps, t=2))
            assert x == 3 * na - 1
            assert x == b + 1

    def test_section_6_2_1_example(self):
        """p_available = 0.999, p_benign = 0.99999: XPaxos 5 nines,
        CFT 4 nines."""
        assert nines_of(p_xft_available(0.999, t=1)) == 5
        assert nines_of(p_cft_available(0.999, 0.99999, t=1)) == 4

    def test_xft_availability_dominates_cft(self):
        for na in range(2, 7):
            for nb in range(na + 1, 9):
                pa = probability_from_nines(na)
                pb = probability_from_nines(nb)
                assert p_xft_available(pa, 1) >= \
                    p_cft_available(pa, pb, 1) - 1e-15


class TestDominanceProperties:
    @given(nb=st.integers(2, 10), nc=st.integers(1, 10),
           ns=st.integers(1, 10))
    def test_xft_consistency_dominates_cft(self, nb, nc, ns):
        """Table 1: XFT's consistency guarantees strictly contain CFT's."""
        nc = min(nc, nb)
        p_benign = probability_from_nines(nb)
        p_correct = probability_from_nines(nc)
        p_synchrony = probability_from_nines(ns)
        xft = p_xft_consistent(p_benign, p_correct, p_synchrony, t=1)
        cft = p_cft_consistent(p_benign, 3)
        assert xft >= cft - 1e-15

    @given(t=st.integers(1, 3), nb=st.integers(2, 8))
    def test_probabilities_in_range(self, t, nb):
        p_benign = probability_from_nines(nb)
        p = p_xft_consistent(p_benign, p_benign, 0.999, t)
        assert 0.0 <= p <= 1.0

    @given(na=st.integers(1, 8), t=st.integers(1, 3))
    def test_xft_availability_monotone_in_p(self, na, t):
        lo = p_xft_available(probability_from_nines(na), t)
        hi = p_xft_available(probability_from_nines(na + 1), t)
        assert hi >= lo

    def test_p_correct_above_p_benign_rejected(self):
        with pytest.raises(ConfigurationError):
            p_xft_consistent(0.99, 0.999, 0.99, 1)


class TestTable1:
    def test_row_structure(self):
        rows = fault_tolerance_table(n=5)
        assert len(rows) == 9
        by_model = {(r.model, r.property): r for r in rows}
        cft_cons = by_model[("async CFT", "consistency")]
        assert cft_cons.non_crash == 0
        assert cft_cons.crash == 5
        assert cft_cons.partitioned == 4

    def test_xft_consistency_two_modes(self):
        rows = fault_tolerance_table(n=5)
        modes = [r for r in rows
                 if r.model == "XFT" and "consistency" in r.property]
        assert len(modes) == 2
        no_noncrash = next(r for r in modes if "no non-crash" in r.property)
        with_noncrash = next(r for r in modes if "with" in r.property)
        assert no_noncrash.partitioned == 4        # n - 1
        assert with_noncrash.combined
        assert with_noncrash.non_crash == 2        # floor((n-1)/2)

    def test_bft_thresholds(self):
        rows = fault_tolerance_table(n=7)
        bft_cons = next(r for r in rows
                        if r.model == "async BFT"
                        and r.property == "consistency")
        assert bft_cons.non_crash == 2  # floor(6/3)

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_tolerance_table(n=2)


class TestAnarchy:
    def test_definition_2(self):
        # anarchy iff tnc > 0 and tnc + tc + tp > t
        assert not anarchy(t=1, tnc=0, tc=5, tp=5)   # no non-crash fault
        assert not anarchy(t=1, tnc=1, tc=0, tp=0)   # sum <= t
        assert anarchy(t=1, tnc=1, tc=1, tp=0)
        assert anarchy(t=1, tnc=2, tc=0, tp=0)
        assert anarchy(t=2, tnc=1, tc=1, tp=1)
        assert not anarchy(t=2, tnc=1, tc=1, tp=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            anarchy(1, -1, 0, 0)
