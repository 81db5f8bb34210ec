"""Tests for synchronous-group selection (Section 4.3.1, Table 2)."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.protocols.xpaxos.groups import SynchronousGroups


class TestTable2:
    """The t = 1 rotation must reproduce the paper's Table 2 exactly."""

    def test_view_i(self):
        groups = SynchronousGroups(n=3, t=1)
        assert groups.primary(0) == 0
        assert groups.followers(0) == (1,)
        assert groups.passive(0) == (2,)

    def test_view_i_plus_1(self):
        groups = SynchronousGroups(n=3, t=1)
        assert groups.primary(1) == 0
        assert groups.followers(1) == (2,)
        assert groups.passive(1) == (1,)

    def test_view_i_plus_2(self):
        groups = SynchronousGroups(n=3, t=1)
        assert groups.primary(2) == 1
        assert groups.followers(2) == (2,)
        assert groups.passive(2) == (0,)

    def test_cycle_repeats(self):
        groups = SynchronousGroups(n=3, t=1)
        for view in range(12):
            assert groups.group(view) == groups.group(view + 3)


class TestGeneral:
    def test_group_count_is_binomial(self):
        for t in (1, 2, 3):
            groups = SynchronousGroups(n=2 * t + 1, t=t)
            assert groups.group_count == math.comb(2 * t + 1, t + 1)

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            SynchronousGroups(n=4, t=1)

    def test_negative_view_rejected(self):
        with pytest.raises(ValueError):
            SynchronousGroups(n=3, t=1).group(-1)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=100))
    def test_partition_into_active_passive(self, t, view):
        groups = SynchronousGroups(n=2 * t + 1, t=t)
        active = set(groups.group(view))
        passive = set(groups.passive(view))
        assert len(active) == t + 1
        assert len(passive) == t
        assert active | passive == set(range(2 * t + 1))
        assert not active & passive

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=50))
    def test_primary_is_in_group(self, t, view):
        groups = SynchronousGroups(n=2 * t + 1, t=t)
        assert groups.primary(view) in groups.group(view)
        assert groups.is_primary(view, groups.primary(view))

    def test_every_combination_appears_within_one_cycle(self):
        """Availability (Section 4.6) needs every t+1 subset to get a turn."""
        t = 2
        groups = SynchronousGroups(n=5, t=t)
        seen = {groups.group(v) for v in range(groups.group_count)}
        assert len(seen) == groups.group_count

    def test_every_replica_is_eventually_passive(self):
        groups = SynchronousGroups(n=3, t=1)
        passives = {groups.passive(v)[0] for v in range(3)}
        assert passives == {0, 1, 2}


def one_cycle(t):
    groups = SynchronousGroups(n=2 * t + 1, t=t)
    return groups, [groups.group(v) for v in range(groups.group_count)]


def longest_spoiled_run(cycle, n):
    """Most consecutive views (the rotation wraps) whose group contains
    one and the same replica: what a single crashed replica can cost."""
    longest = 0
    for replica in range(n):
        run = 0
        for group in cycle + cycle:
            run = run + 1 if replica in group else 0
            longest = max(longest, min(run, len(cycle)))
    return longest


class TestRotationOrder:
    """Which group follows which (the paper fixes it for t = 1 only)."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_one_cycle_is_a_permutation_of_all_combinations(self, t):
        n = 2 * t + 1
        groups, cycle = one_cycle(t)
        assert sorted(cycle) == list(itertools.combinations(range(n), t + 1))
        assert cycle[0] == tuple(range(t + 1))
        assert groups.group(groups.group_count) == cycle[0]

    def test_table_2_exactly_at_t1(self):
        _, cycle = one_cycle(1)
        assert cycle == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_next_group_avoids_the_primary_and_shares_the_fewest(self, t):
        groups, cycle = one_cycle(t)
        for view in range(len(cycle) - 1):
            primary, unused = groups.primary(view), cycle[view + 1:]
            without = [g for g in unused if primary not in g]
            if without:
                assert primary not in groups.group(view + 1), view

            def shared(group):
                return len(set(group) & set(cycle[view]))
            assert (shared(cycle[view + 1]), cycle[view + 1]) == min(
                (shared(g), g) for g in without or unused), view

    @pytest.mark.parametrize("t, bound, lexicographic", [
        (1, 2, 2), (2, 4, 6), (3, 7, 20), (4, 17, 70)])
    def test_longest_run_one_crashed_replica_can_spoil(self, t, bound,
                                                       lexicographic):
        n = 2 * t + 1
        _, cycle = one_cycle(t)
        assert longest_spoiled_run(cycle, n) <= bound
        assert longest_spoiled_run(
            list(itertools.combinations(range(n), t + 1)), n) \
            == lexicographic

    def test_first_five_views_at_t2(self):
        groups, _ = one_cycle(2)
        assert [groups.group(v) for v in range(5)] == [
            (0, 1, 2), (1, 3, 4), (0, 2, 3), (1, 2, 4), (0, 3, 4)]


class TestNextViewAvoiding:
    """Where a replica that knows which members of a view it could not
    hear goes: the first later view whose group leaves all of them out."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_the_first_group_without_any_silent_member(self, t):
        groups, cycle = one_cycle(t)
        n = 2 * t + 1
        for size in range(1, t + 1):
            for silent in itertools.combinations(range(n), size):
                for view in range(len(cycle)):
                    target = groups.next_view_avoiding(view, silent)
                    assert view < target <= view + len(cycle)
                    assert not set(silent) & set(groups.group(target))
                    assert all(set(silent) & set(groups.group(skipped))
                               for skipped in range(view + 1, target))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_nobody_silent_or_more_than_t_is_the_next_view(self, t):
        groups, cycle = one_cycle(t)
        for view in range(len(cycle)):
            assert groups.next_view_avoiding(view, ()) == view + 1
            for silent in itertools.combinations(range(2 * t + 1), t + 1):
                assert groups.next_view_avoiding(view, silent) == view + 1

    def test_a_crashed_follower_of_view_2_at_t2_skips_view_3(self):
        groups, _ = one_cycle(2)
        assert 2 in groups.followers(2) and 2 in groups.group(3)
        assert groups.next_view_avoiding(2, [2]) == 4
