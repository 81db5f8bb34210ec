"""The entry arena behind ``schedule()``.

Every popped heap entry goes back to a freelist before its callback runs
and is reused by the next scheduling, so a steady-state run allocates no
entries.  These tests pin down what that machinery shows of itself -- the
counters, actual reuse, what a parked entry holds on to.
Execution order under recycling, cancellation and compaction is checked
against the seed simulator in ``test_against_seed.py``.
"""

import gc
import weakref

from repro.sim.core import Simulator


def ping_pong(sim, rounds, log):
    """A self-sustaining chain: one live entry, recycled forever."""

    def fire(i):
        log.append((sim.now, i))
        if i < rounds:
            sim.schedule(sim.now + 1.0, fire, (i + 1,))

    sim.schedule(1.0, fire, (0,))


class TestArenaCounters:
    def test_counters_present_and_zero_initially(self):
        stats = Simulator().stats()
        assert stats["arena_size"] == 0
        assert stats["arena_hits"] == 0
        assert stats["arena_hit_rate"] == 0.0

    def test_hit_rate_is_hits_over_heap_pushes(self):
        sim = Simulator()
        ping_pong(sim, 40, [])
        sim.run()
        stats = sim.stats()
        assert stats["heap_pushes"] == stats["scheduled"] == 41
        assert stats["arena_hit_rate"] == (
            stats["arena_hits"] / stats["heap_pushes"])

    def test_retired_counters_read_zero(self):
        # The ledger still indexes these two; see Simulator.stats().
        sim = Simulator()
        ping_pong(sim, 10, [])
        sim.schedule(sim.now, lambda: None)
        sim.run()
        stats = sim.stats()
        assert stats["fast_lane"] == 0 and stats["pool_hits"] == 0


class TestArenaRecycling:
    def test_steady_state_allocates_nothing(self):
        sim = Simulator()
        log = []
        ping_pong(sim, 100, log)
        sim.run(until=1_000.0)
        # Every scheduling after the first finds the single vacated
        # entry: one cold allocation in the whole run.
        stats = sim.stats()
        assert stats["arena_hits"] == 100
        assert stats["scheduled"] - stats["arena_hits"] == 1
        assert stats["arena_size"] == 1  # the last entry, parked
        assert log == [(float(i + 1), i) for i in range(101)]

    def test_the_next_scheduling_reuses_the_vacated_entry(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, (0,))
        sim.run()
        assert sim.stats()["arena_size"] == 1
        assert sim.schedule(2.0, lambda: fired.append(1)) is first
        assert sim.stats()["arena_hits"] == 1
        assert sim.stats()["arena_size"] == 0
        sim.run()
        assert fired == [0, 1]

    def test_arena_is_bounded_by_the_peak_heap_size(self):
        sim = Simulator()
        fired = []
        # A wide burst: every entry vacates on the same drain pass.
        for i in range(200):
            sim.schedule(1.0 + i * 0.001, fired.append, (i,))
        sim.run()
        for i in range(200):
            sim.schedule(sim.now + 1.0 + i * 0.001, fired.append, (i,))
        sim.run()
        stats = sim.stats()
        assert stats["arena_size"] == stats["peak_pending"] == 200
        assert fired == list(range(200)) * 2

    def test_parked_entries_do_not_pin_delivered_payloads(self):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        alive = weakref.ref(payload)
        sim.schedule(1.0, lambda p: None, (payload,))
        doomed = sim.schedule(2.0, lambda p: None, (payload,))
        sim.cancel(doomed, doomed[1])
        del payload
        sim.run()
        gc.collect()
        assert sim.stats()["arena_size"] == 2
        assert alive() is None


class TestSchedule:
    def test_fires_in_time_and_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(20.0, log.append, ("b",))
        sim.schedule(10.0, log.append, ("a",))
        sim.schedule(20.0, log.append, ("c",))
        sim.schedule(20.0, log.append, ("d",))
        sim.run()
        assert log == ["a", "b", "c", "d"]

    def test_survives_compaction(self):
        # Mass cancellation compacts the heap while a never-cancelled
        # entry sits in it; it must be kept, not dropped or recycled.
        sim = Simulator()
        log = []
        sim.schedule(500.0, log.append, ("kept",))
        victims = [sim.schedule(100.0 + i, lambda: log.append("victim"))
                   for i in range(300)]
        for victim in victims:
            sim.cancel(victim, victim[1])
        stats = sim.stats()
        assert stats["compactions"] > 0
        assert stats["compaction_dropped"] > 0
        assert sim.pending == 1
        sim.run()
        assert log == ["kept"]
