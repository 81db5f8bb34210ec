"""Tests for the safety checker and anarchy accounting."""

import pytest

from repro.faults.checker import SafetyChecker, check_total_order
from tests.conftest import make_cluster


class TestTotalOrderChecker:
    """Traces are ``[(seqno, rids), ...]``: one entry per executed slot,
    ``rids`` the request ids of the slot's batch in execution order."""

    def test_identical_traces_pass(self):
        traces = {0: [(1, (("c0", 1),)), (2, (("c1", 1),))],
                  1: [(1, (("c0", 1),)), (2, (("c1", 1),))]}
        assert check_total_order(traces) == []

    def test_divergent_slot_detected(self):
        traces = {0: [(1, (("c0", 1),))],
                  1: [(1, (("c1", 1),))]}
        violations = check_total_order(traces)
        assert len(violations) == 1
        assert violations[0].seqno == 1

    def test_divergent_slot_names_both_replicas_and_what_each_ran(self):
        traces = {0: [(1, (("c0", 1), ("c1", 1))), (2, (("c2", 1),))],
                  1: [(1, (("c0", 1), ("c1", 1))), (2, (("c3", 1),))],
                  2: [(1, (("c0", 1), ("c1", 1))), (2, (("c2", 1),))]}
        violations = check_total_order(traces)
        assert [(v.seqno, v.replica_a, v.replica_b, v.rid_a, v.rid_b)
                for v in violations] == [
            (2, 0, 1, (("c2", 1),), (("c3", 1),)),
            (2, 1, 2, (("c3", 1),), (("c2", 1),))]
        assert "sn 2: r0 executed" in str(violations[0])

    def test_prefix_traces_pass(self):
        """A replica that is simply behind is not divergent."""
        traces = {0: [(1, (("c0", 1),)), (2, (("c1", 1),))],
                  1: [(1, (("c0", 1),))]}
        assert check_total_order(traces) == []

    def test_slot_only_one_replica_executed_passes(self):
        """Holes are not divergence: a slot is compared only among the
        replicas that executed it (a passive replica restored past it, an
        XPaxos view change skipped it)."""
        traces = {0: [(1, (("c0", 1),)), (2, (("c1", 1),)),
                      (3, (("c2", 1),))],
                  1: [(1, (("c0", 1),)), (3, (("c2", 1),))],
                  2: [(3, (("c2", 1),))]}
        assert check_total_order(traces) == []

    def test_batch_slots_compared_as_tuples(self):
        batch = (("c0", 1), ("c1", 1))
        assert check_total_order({0: [(1, batch)], 1: [(1, batch)]}) == []
        swapped = {0: [(1, batch)], 1: [(1, batch[::-1])]}
        assert check_total_order(swapped)

    def test_batch_split_differently_across_replicas_detected(self):
        """The same requests in the same order, but cut into slots
        differently: slot 1 differs (two requests against one), and so
        would every state digest taken between the two cuts."""
        traces = {0: [(1, (("c0", 1), ("c1", 1)))],
                  1: [(1, (("c0", 1),)), (2, (("c1", 1),))]}
        violations = check_total_order(traces)
        assert [v.seqno for v in violations] == [1]

    def test_slot_named_twice_in_one_trace_counts_everything_it_ran(self):
        """A replica executes a slot once.  A trace that names one twice
        is graded on the concatenation, as the flat trace was."""
        twice = {0: [(1, (("c0", 1),)), (1, (("c1", 1),))],
                 1: [(1, (("c0", 1),))]}
        assert [v.seqno for v in check_total_order(twice)] == [1]
        whole = {0: [(1, (("c0", 1),)), (1, (("c1", 1),))],
                 1: [(1, (("c0", 1), ("c1", 1)))]}
        assert check_total_order(whole) == []

    def test_empty_traces_pass(self):
        assert check_total_order({0: [], 1: []}) == []


class TestAnarchyAccounting:
    def test_healthy_cluster_not_in_anarchy(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime)
        assert checker.fault_counts() == (0, 0, 0)
        assert not checker.in_anarchy()

    def test_single_byzantine_within_threshold_not_anarchy(self):
        runtime = make_cluster()  # t = 1
        checker = SafetyChecker(runtime, non_crash_faulty=[0])
        assert checker.fault_counts() == (1, 0, 0)
        assert not checker.in_anarchy()  # tnc + tc + tp = 1 <= t

    def test_byzantine_plus_crash_is_anarchy(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime, non_crash_faulty=[0])
        runtime.replica(1).crash()
        assert checker.fault_counts() == (1, 1, 0)
        assert checker.in_anarchy()

    def test_byzantine_plus_partition_is_anarchy(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime, non_crash_faulty=[0])
        runtime.network.partitions.isolate("r1", ["r0", "r2"])
        tnc, tc, tp = checker.fault_counts()
        assert (tnc, tc, tp) == (1, 0, 1)
        assert checker.in_anarchy()

    def test_crashes_alone_never_anarchy(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime)
        runtime.replica(0).crash()
        runtime.replica(1).crash()
        assert not checker.in_anarchy()  # tnc == 0

    def test_observation_latches(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime, non_crash_faulty=[0])
        runtime.replica(1).crash()
        assert checker.observe()
        runtime.replica(1).recover()
        assert not checker.observe()
        assert checker.anarchy_observed  # latched

    def test_assert_safe_passes_on_clean_run(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime)
        checker.assert_safe()

    def test_assert_safe_raises_on_divergence_outside_anarchy(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime)
        runtime.replica(0).execution_trace.append((1, (("c0", 1),)))
        runtime.replica(1).execution_trace.append((1, (("c9", 9),)))
        with pytest.raises(AssertionError):
            checker.assert_safe()

    def test_periodic_observation_times_pinned(self):
        """Observations land exactly at now, now+p, ..., <= until."""
        runtime = make_cluster()
        checker = SafetyChecker(runtime)
        runtime.sim.run(until=150.0)
        checker.observe_periodically(period_ms=100.0, until_ms=500.0)
        runtime.sim.run(until=1_000.0)
        times = [t for t, _ in checker._observations]
        assert times == [150.0, 250.0, 350.0, 450.0]

    def test_periodic_observation_is_one_event_at_a_time(self):
        """Arming a long horizon must not pre-enqueue every observation:
        the next tick is scheduled only when the current one fires."""
        runtime = make_cluster()
        checker = SafetyChecker(runtime)
        before = runtime.sim.pending
        checker.observe_periodically(period_ms=10.0, until_ms=1_000_000.0)
        assert runtime.sim.pending == before + 1

    def test_periodic_observation_rejects_bad_period(self):
        runtime = make_cluster()
        checker = SafetyChecker(runtime)
        with pytest.raises(ValueError):
            checker.observe_periodically(period_ms=0.0, until_ms=100.0)

    def test_divergence_tolerated_in_anarchy(self):
        """Definition 3: safety is only promised outside anarchy."""
        runtime = make_cluster()
        checker = SafetyChecker(runtime, non_crash_faulty=[2])
        runtime.replica(1).crash()
        checker.observe()  # anarchy latched
        runtime.replica(0).execution_trace.append((1, (("c0", 1),)))
        runtime.replica(1).execution_trace.append((1, (("c9", 9),)))
        checker.assert_safe()  # no exception: anarchy was observed
