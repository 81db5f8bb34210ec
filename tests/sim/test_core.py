"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.sim.core import Simulator


def pin(entry):
    """What a canceller keeps: the entry and the sequence it was
    scheduled under (the arguments of ``Simulator.cancel``)."""
    return entry, entry[1]


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_executes_at_that_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10.0]

    def test_scheduling_now_runs_at_current_instant(self):
        sim = Simulator()
        seen = []
        sim.schedule(7.0, lambda: sim.schedule(
            sim.now, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.0]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(5.0, lambda: None)

    def test_nan_time_raises_and_leaves_the_clock_alone(self):
        # A NaN event used to fire first and set the clock to NaN, after
        # which every time in the past was accepted.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending == 0
        sim.run(until=10.0)
        assert sim.now == 10.0
        with pytest.raises(SimulationError):
            sim.schedule(5.0, lambda: None)


class TestOrdering:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(30.0, lambda: seen.append("c"))
        sim.schedule(10.0, lambda: seen.append("a"))
        sim.schedule(20.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        seen = []
        for name in "abcdef":
            sim.schedule(5.0, lambda n=name: seen.append(n))
        sim.run()
        assert seen == list("abcdef")

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_delivery_times_are_nondecreasing(self, times):
        sim = Simulator()
        observed = []
        for t in times:
            sim.schedule(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        assert sim.cancel(*pin(sim.schedule(10.0, lambda: seen.append("x"))))
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        pair = pin(sim.schedule(10.0, lambda: None))
        assert sim.cancel(*pair)
        assert not sim.cancel(*pair)
        assert sim.pending == 0

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append("keep"))
        sim.cancel(*pin(sim.schedule(20.0, lambda: seen.append("drop"))))
        assert sim.pending == 1
        sim.run()
        assert seen == ["keep"]


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append("early"))
        sim.schedule(100.0, lambda: seen.append("late"))
        sim.run(until=50.0)
        assert seen == ["early"]
        assert sim.now == 50.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=123.0)
        assert sim.now == 123.0

    def test_back_to_back_runs_compose(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append(1))
        sim.schedule(60.0, lambda: seen.append(2))
        sim.run(until=50.0)
        sim.run(until=100.0)
        assert seen == [1, 2]

    def test_max_events_budget(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        executed = sim.run(max_events=4)
        assert executed == 4
        assert sim.pending == 6

    def test_step_executes_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]

    def test_step_on_empty_queue_returns_false(self):
        assert not Simulator().step()

    def test_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.executed == 5


class TestCountersMidRun:
    """``executed`` and ``stats()`` are exact from inside a callback and
    after one raises, not only between runs."""

    @staticmethod
    def _ledger(sim, cancels):
        """The conservation identity, with ``cancelled`` checked against
        the test's own count (``stats()`` derives it from the others, so
        a wrong ``executed`` shows up here)."""
        stats = sim.stats()
        assert stats["executed"] == sim.executed
        assert stats["cancelled"] == cancels
        assert stats["scheduled"] == (stats["executed"] + stats["pending"]
                                      + stats["cancelled"])
        return stats

    def test_exact_from_inside_a_callback_halfway_through_a_run(self):
        sim = Simulator()
        fired = []
        seen = []
        doomed = [pin(sim.schedule(90.0 + i, lambda: None))
                  for i in range(5)]

        def tick(i):
            fired.append(i)
            if i == 10:
                for pair in doomed[:3]:
                    sim.cancel(*pair)
                stats = self._ledger(sim, cancels=3)
                seen.append((stats["executed"], stats["pending"]))

        for i in range(20):
            sim.schedule(float(i + 1), tick, (i,))
        sim.run(until=50.0)
        # The running event counts as executed; 9 ticks and 2 far-future
        # events are still pending at that moment.
        assert seen == [(11, 11)]
        assert sim.executed == len(fired) == 20
        self._ledger(sim, cancels=3)

    def test_exact_after_a_callback_raises(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.schedule(4.0, boom)
        sim.cancel(*pin(sim.schedule(5.0, lambda: None)))
        sim.schedule(6.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run(until=10.0)
        assert sim.executed == 4 and sim.pending == 1 and sim.now == 4.0
        self._ledger(sim, cancels=1)


class TestReentrancy:
    def test_run_inside_a_callback_raises(self):
        sim = Simulator()
        sim.schedule(1.0, sim.run)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    def test_step_inside_a_callback_raises(self):
        # step() used to pop the outer loop's next event silently.
        sim = Simulator()
        seen = []
        sim.schedule(1.0, sim.step)
        sim.schedule(2.0, lambda: seen.append("later"))
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run(until=10.0)
        assert seen == []
        assert sim.pending == 1

    def test_running_flag_cleared_when_a_callback_raises(self):
        sim = Simulator()
        seen = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: seen.append("after"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.step()  # neither step() nor run() is wedged
        assert seen == ["after"]
        assert sim.run(until=5.0) == 0 and sim.now == 5.0


class TestLiveCount:
    """The live-event counter behind the O(1) ``pending`` property."""

    def test_cancel_decrements_immediately(self):
        sim = Simulator()
        pairs = [pin(sim.schedule(float(i + 1), lambda: None))
                 for i in range(5)]
        assert sim.pending == 5
        sim.cancel(*pairs[0])
        sim.cancel(*pairs[3])
        assert sim.pending == 3

    def test_double_cancel_does_not_double_decrement(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        drop = pin(sim.schedule(2.0, lambda: None))
        sim.cancel(*drop)
        sim.cancel(*drop)
        assert sim.pending == 1

    def test_execution_decrements(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.step()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_pair_inert_after_fire(self):
        sim = Simulator()
        pair = pin(sim.schedule(1.0, lambda: None))
        sim.run()
        assert not sim.cancel(*pair)  # must be a no-op
        assert sim.pending == 0

    def test_stale_pair_cannot_cancel_recycled_event(self):
        # After its event fires, a pinned pair must never affect a later
        # event that reuses the same recycled entry.
        sim = Simulator()
        seen = []
        old = pin(sim.schedule(1.0, lambda: None))
        sim.run()
        fresh = sim.schedule(2.0, lambda: seen.append("fresh"))
        assert fresh is old[0]
        assert not sim.cancel(*old)
        assert sim.pending == 1
        sim.run()
        assert seen == ["fresh"]

    def test_run_with_cancelled_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.cancel(*pin(sim.schedule(2.0, lambda: None)))
        assert sim.run() == 1
        assert seen == [1]
        assert sim.pending == 0


class TestCompactionAndPool:
    """Cancel-heavy churn: the heap compacts, events are recycled, and
    delivery order is unaffected."""

    def test_mass_cancellation_preserves_order(self):
        sim = Simulator()
        seen = []
        pairs = [pin(sim.schedule(float(i), lambda i=i: seen.append(i)))
                 for i in range(1000)]
        for i, pair in enumerate(pairs):
            if i % 10 != 0:
                sim.cancel(*pair)
        assert sim.pending == 100
        sim.run()
        assert seen == list(range(0, 1000, 10))
        assert sim.pending == 0

    def test_cancel_reschedule_churn_stays_consistent(self):
        # The protocol hot pattern: cancel a far-out timer and re-arm it on
        # every 'reply'.  Counts must stay exact through pooling/compaction.
        sim = Simulator()
        fired = []
        state = {"timer": None, "count": 0}

        def on_timer():
            fired.append(sim.now)

        def reply():
            state["count"] += 1
            if state["timer"] is not None:
                sim.cancel(*state["timer"])
            state["timer"] = pin(sim.schedule(sim.now + 10_000.0, on_timer))
            if state["count"] < 500:
                sim.schedule(sim.now + 1.0, reply)

        sim.schedule(0.0, reply)
        sim.run(until=600.0)
        assert state["count"] == 500
        assert fired == []  # always re-armed before expiry
        assert sim.pending == 1  # exactly the last timer survives
        sim.run()
        assert fired == [10_000.0 + 499.0]

    def test_args_passed_to_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, (42,))
        sim.schedule(2.0, lambda a, b: seen.append(a + b), (1, 2))
        sim.run()
        assert seen == [42, 3]

    def test_cancellation_inside_callback_during_run(self):
        # Compaction can trigger mid-run (a callback cancels en masse); the
        # remaining schedule must still fire in order.
        sim = Simulator()
        seen = []
        victims = [pin(sim.schedule(50.0 + i, lambda i=i: seen.append(i)))
                   for i in range(200)]

        def massacre():
            for victim in victims[1:]:
                sim.cancel(*victim)

        sim.schedule(10.0, massacre)
        sim.schedule(40.0, lambda: seen.append("pre"))
        sim.run()
        assert seen == ["pre", 0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace():
            sim = Simulator()
            log = []
            # A small cascade of events with ties.
            for i in range(20):
                sim.schedule(float(i % 5),
                             lambda i=i: log.append((sim.now, i)))
            sim.run()
            return log

        assert trace() == trace()


class TestCallEvery:
    def test_ticks_land_on_exact_multiples(self):
        sim = Simulator()
        times = []
        sim.run(until=150.0)
        sim.call_every(100.0, lambda: times.append(sim.now), 500.0)
        sim.run(until=1_000.0)
        assert times == [150.0, 250.0, 350.0, 450.0]

    def test_one_live_event_at_a_time(self):
        sim = Simulator()
        sim.call_every(10.0, lambda: None, 10_000_000.0)
        assert sim.pending == 1

    def test_until_is_inclusive(self):
        sim = Simulator()
        times = []
        sim.call_every(50.0, lambda: times.append(sim.now), 100.0)
        sim.run()
        assert times == [0.0, 50.0, 100.0]

    def test_past_horizon_schedules_nothing(self):
        sim = Simulator()
        sim.run(until=500.0)
        sim.call_every(10.0, lambda: None, 100.0)
        assert sim.pending == 0

    @pytest.mark.parametrize("period", [0.0, float("nan")])
    def test_rejects_nonpositive_period(self, period):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_every(period, lambda: None, 100.0)
