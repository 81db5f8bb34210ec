"""The simulator against its oracle: the preserved seed event loop.

``SeedSimulator`` (``repro.harness.seed_reference``) is the simplest
possible reading of the contract -- a heap of orderable events, popped in
``(time, sequence)`` order, cancelled ones skipped -- with none of the
current loop's machinery (in-place tombstones, recycled entries, heap
compaction).  Every test here plays one script against both and demands
the same fire order, the same clock and the same ``pending`` count at
every point where the two can be compared.
"""

import random

import pytest

from repro.harness.seed_reference import SeedSimulator
from repro.sim.core import Simulator


class Pinned:
    """What a canceller keeps: the entry and the sequence it was
    scheduled under.  Cancelling a fired or recycled entry does nothing."""

    def __init__(self, sim, entry):
        self.sim, self.entry, self.sequence = sim, entry, entry[1]

    def cancel(self):
        self.sim.cancel(self.entry, self.sequence)


class Current(Simulator):
    """The simulator under the seed's handle-returning verbs, so one
    script drives both: each verb is ``schedule`` plus a pinned pair."""

    def call_at(self, time, callback):
        return Pinned(self, self.schedule(time, callback))

    def call_after(self, delay, callback):
        return self.call_at(self.now + delay, callback)


def on_both(script):
    """Play ``script(sim)`` on both simulators; the returned observations
    must be identical."""
    observed = script(Current())
    expected = script(SeedSimulator())
    assert observed == expected
    return observed


# ----------------------------------------------------------------------
# Seeded random traces
# ----------------------------------------------------------------------

#: Few distinct delays, zero included: ties and same-instant chains are
#: the norm, so ordering at one instant is exercised on every trace.
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 3.0)


def random_trace(sim, seed, budget=400):
    """One random script: what each event does when it fires is a pure
    function of ``(seed, event id)``, so both simulators are asked to do
    the same things as long as they fire the same events.

    A firing event logs ``(now, id)``, then spawns children (same-tick
    ones included), cancels earlier handles (live, fired or long
    recycled), re-arms a "timer" slot the way protocols do on every
    reply, and now and then cancels a hundred-odd far-future events at
    once -- enough to cross the compaction threshold from inside a
    callback.
    """
    log = []
    handles = []
    timers = [None] * 8
    spawned = [0]

    def spawn(delay):
        if spawned[0] >= budget:
            return
        ident = spawned[0]
        spawned[0] += 1
        handles.append(sim.call_at(sim.now + delay, lambda: fire(ident)))

    def fire(ident):
        log.append((sim.now, ident))
        rng = random.Random(seed * 1_000_003 + ident)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            spawn(rng.choice(DELAYS))
        for _ in range(rng.choice((0, 0, 1, 2))):
            rng.choice(handles).cancel()
        slot = rng.randrange(len(timers))
        if timers[slot] is not None:
            timers[slot].cancel()
        timers[slot] = sim.call_at(sim.now + 50.0, lambda: None)
        if rng.random() < 0.03:
            doomed = [sim.call_at(sim.now + 1_000.0 + i, lambda: None)
                      for i in range(150)]
            for handle in doomed:
                handle.cancel()
            handles.extend(doomed[:5])  # stale handles to re-cancel later

    opening = random.Random(seed)
    for _ in range(6):
        spawn(opening.choice(DELAYS))
    return log


def drive(sim, seed, log):
    """Advance ``sim`` by a random mix of ``run(until=...)``,
    ``run(max_events=k)`` and ``step()``, recording the observable state
    after each move.  (The seed has no ``max_events``; ``k`` events are
    ``k`` steps.)"""
    rng = random.Random(seed ^ 0x5EED)
    checkpoints = []
    for _ in range(200):
        move = rng.choice(("until", "until", "max", "step"))
        if move == "until":
            done = sim.run(until=sim.now + rng.choice((0.0, 0.25, 1.0, 7.0)))
        elif move == "step":
            done = int(sim.step())
        else:
            budget = rng.randrange(1, 6)
            if isinstance(sim, Simulator):
                done = sim.run(max_events=budget)
            else:
                done = sum(1 for _ in range(budget) if sim.step())
        checkpoints.append((move, done, sim.now, sim.pending, len(log)))
    sim.run(until=sim.now + 10_000.0)
    checkpoints.append(("end", sim.now, sim.pending, len(log)))
    return checkpoints


@pytest.mark.parametrize("seed", range(12))
def test_random_trace_matches_seed(seed):
    def script(sim):
        log = random_trace(sim, seed)
        return drive(sim, seed, log), log

    checkpoints, log = on_both(script)
    assert len(log) > 50  # the trace actually ran
    assert checkpoints[-1][2] == 0  # and ran out


def test_random_traces_cross_the_compaction_threshold():
    # The oracle comparison above is only worth its name if the current
    # loop's machinery engages: compaction must fire and entries must
    # be recycled, on the same traces.
    compactions = recycled = 0
    for seed in range(12):
        sim = Current()
        log = random_trace(sim, seed)
        drive(sim, seed, log)
        stats = sim.stats()
        compactions += stats["compactions"]
        recycled += stats["arena_hits"]
    assert compactions > 0
    assert recycled > 1_000


# ----------------------------------------------------------------------
# Ordering at one instant
# ----------------------------------------------------------------------

def test_same_tick_chains_interleave_with_future_events():
    def script(sim):
        log = []

        def note(tag):
            log.append((sim.now, tag))

        def burst(round_no):
            note(f"burst{round_no}")
            sim.call_at(sim.now, lambda: note(f"soon{round_no}a"))
            sim.call_at(sim.now, lambda: sim.call_at(
                sim.now, lambda: note(f"nested{round_no}")))
            sim.call_at(sim.now, lambda: note(f"soon{round_no}b"))
            sim.call_after(3.0, lambda: note(f"later{round_no}"))
            sim.call_after(3.0, lambda: note(f"dropped{round_no}")).cancel()
            if round_no < 5:
                sim.call_after(10.0, lambda: burst(round_no + 1))

        sim.call_at(1.0, lambda: burst(0))
        sim.run(until=100.0)
        return log, sim.now, sim.pending

    log, _, _ = on_both(script)
    assert [tag for _, tag in log[:5]] == [
        "burst0", "soon0a", "soon0b", "nested0", "later0"]


def test_events_due_now_scheduled_earlier_fire_before_same_tick_ones():
    # An event scheduled *earlier* for time T precedes one created at T
    # for T, whatever either was scheduled from.
    def script(sim):
        log = []
        sim.call_at(5.0, lambda: log.append("scheduled-first"))

        def at_five():
            log.append("firing")
            sim.call_at(sim.now, lambda: log.append("created-at-five"))

        sim.call_at(5.0, at_five)
        sim.call_at(5.0, lambda: log.append("scheduled-third"))
        sim.run(until=10.0)
        return log

    assert on_both(script) == ["scheduled-first", "firing",
                               "scheduled-third", "created-at-five"]


def test_cancel_same_tick_event_before_it_fires():
    def script(sim):
        log = []

        def setup():
            doomed = sim.call_at(sim.now, lambda: log.append("cancelled"))
            sim.call_at(sim.now, lambda: log.append("kept"))
            doomed.cancel()

        sim.call_at(2.0, setup)
        sim.run(until=5.0)
        return log, sim.pending

    assert on_both(script) == (["kept"], 0)


def test_step_takes_same_tick_events_in_order():
    def script(sim):
        log = []
        sim.call_at(1.0, lambda: [
            sim.call_at(sim.now, lambda i=i: log.append(i))
            for i in range(3)])
        steps = 0
        while sim.step():
            steps += 1
        return log, steps, sim.now

    assert on_both(script) == ([0, 1, 2], 4, 1.0)


# ----------------------------------------------------------------------
# Cancellation, compaction and recycling stay invisible
# ----------------------------------------------------------------------

def test_mass_cancel_from_inside_a_callback():
    # The nasty aliasing case: the currently firing entry is already
    # back in the arena when its callback cancels en masse and trips
    # compaction, which rebuilds the heap under the running loop.
    def script(sim):
        log = []
        victims = [sim.call_at(50.0 + i, lambda i=i: log.append(i))
                   for i in range(300)]
        survivor = sim.call_at(60.5, lambda: log.append("survivor"))

        def massacre():
            for victim in victims:
                victim.cancel()
            for victim in victims:  # stale by now: must stay a no-op
                victim.cancel()
            sim.call_after(1.0, lambda: log.append("fresh"))
            sim.call_at(sim.now, lambda: log.append("soon"))

        sim.call_at(10.0, massacre)
        sim.run(until=20.0)
        mid = (list(log), sim.pending)
        sim.run(until=100.0)
        del survivor
        return mid, log, sim.pending

    mid, log, pending = on_both(script)
    assert mid == (["soon", "fresh"], 1)
    assert log == ["soon", "fresh", "survivor"] and pending == 0


def test_cancel_then_reschedule_churn_past_the_compaction_threshold():
    # The protocol hot pattern, long enough for several compactions.
    def script(sim):
        log = []
        timers = [None] * 16
        count = [0]

        def reply():
            count[0] += 1
            slot = count[0] % len(timers)
            if timers[slot] is not None:
                timers[slot].cancel()
            timers[slot] = sim.call_after(
                500.0, lambda n=count[0]: log.append(("timeout", n)))
            if count[0] < 2_000:
                sim.call_after(0.01, reply)

        sim.call_after(0.0, reply)
        sim.run(until=30.0)
        mid = (sim.now, sim.pending, len(log))
        sim.run(until=1_000.0)
        return mid, log, sim.pending

    mid, log, pending = on_both(script)
    assert mid[1] == 16 and pending == 0
    assert len(log) == 16  # only the last arming of each slot fires


def test_stale_handles_across_many_recycling_generations():
    # One heap entry serves many schedulings.  A handle from generation
    # k must be inert for every generation after k: cancelling it must
    # never kill a later event that happens to reuse its entry.
    def script(sim):
        log = []
        stale = []
        for generation in range(50):
            stale.append(sim.call_after(
                1.0, lambda g=generation: log.append(g)))
            sim.run(until=sim.now + 2.0)
            for old in stale:
                old.cancel()
        return log, sim.now, sim.pending

    assert on_both(script)[0] == list(range(50))


def test_recycled_entries_preserve_ordering():
    # Entries vacated mid-run (fired ones and popped tombstones alike)
    # are handed to later schedulings; whatever time and sequence those
    # carry, not the entry's previous life, decides when they fire.
    def script(sim):
        log = []
        handles = [sim.call_at(5.0 + i, lambda i=i: log.append(i))
                   for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run(until=9.5)
        for i in range(10, 20):
            sim.call_at(20.0 - (i - 10) * 0.5, lambda i=i: log.append(i))
        sim.run(until=30.0)
        return log, sim.pending

    log, _ = on_both(script)
    assert log == [1, 3, 5, 7, 9] + list(range(19, 9, -1))


def test_cancelled_generations_recycle_without_leaking():
    def script(sim):
        log = []
        for generation in range(30):
            doomed = sim.call_after(5.0, lambda: log.append("doomed"))
            sim.call_after(1.0, lambda g=generation: log.append(g))
            doomed.cancel()
            sim.run(until=sim.now + 2.0)
        sim.run(until=sim.now + 10.0)
        return log, sim.pending

    assert on_both(script) == (list(range(30)), 0)
