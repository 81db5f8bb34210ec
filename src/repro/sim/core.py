"""The event loop at the heart of every experiment.

Design notes
------------

* **Virtual time** is a ``float`` number of milliseconds starting at 0.
* **One entry shape**: a protocol timer, a ``call_soon`` kick and a message
  delivery are all a 4-slot list ``[time, sequence, callback, args]`` in
  one binary heap.  Lists, not objects, because ``heapq`` then orders
  entries with C-speed element-wise comparisons that never get past the
  unique ``sequence``; lists, not tuples, because cancellation and
  recycling write slots in place.
* **Determinism**: ``sequence`` increases with every scheduling, so events
  due at the same instant fire in insertion order and a run is a pure
  function of (code, seed).
* **Cancellation** is lazy: cancelling tombstones the entry (``callback =
  None``) and the drain skips it when popped, which keeps cancellation
  O(1) -- protocols cancel a retransmission timer on virtually every
  reply.  When tombstones outnumber live entries the heap is compacted in
  one pass (as asyncio does), so a cancel-heavy run never drags a long
  tail of dead timers through every push and pop.
* **Handles** (:class:`EventHandle`, :class:`repro.sim.process.Timer`) pin
  the ``(entry, sequence)`` pair they were given.  ``sequence`` doubles as
  the generation tag: a fired entry has no callback and a recycled one
  carries a different sequence, so a stale handle is inert.
* **Arena**: the drain hands every popped entry to a freelist *before* its
  callback runs, so the entry a delivery vacates is reused by the
  deliveries it causes and the steady state allocates nothing per event
  -- which also keeps the GC's generation-0 counter flat (entry lists are
  GC-tracked).  The arena needs no cap: it only holds entries the heap
  released, so it is bounded by the peak heap size.

:meth:`Simulator.stats` exposes the loop's counters for ``repro
profile``; see ``docs/profiling.md``.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError

Callback = Callable[..., None]

#: Compact the heap when more than this many entries are cancelled *and*
#: they outnumber the live entries (both conditions, like asyncio).
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class EventHandle:
    """Caller-facing handle allowing an event to be cancelled.

    The handle pins the ``(entry, sequence)`` pair observed at scheduling
    time; once the event has fired (or its entry has been recycled) the
    handle becomes inert: ``active`` is False and ``cancel()`` is a no-op.
    """

    __slots__ = ("_sim", "_entry", "_sequence")

    def __init__(self, sim: "Simulator", entry: List[Any]):
        self._sim = sim
        self._entry = entry
        self._sequence = entry[1]

    @property
    def time(self) -> float:
        """Virtual time at which the event will fire (meaningful only
        while ``active``)."""
        return self._entry[0]

    @property
    def active(self) -> bool:
        """True while the event is scheduled and not yet fired/cancelled."""
        entry = self._entry
        return entry[1] == self._sequence and entry[2] is not None

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        self._sim._cancel(self._entry, self._sequence)


class Simulator:
    """A deterministic discrete-event scheduler.

    Typical usage::

        sim = Simulator()
        sim.call_at(10.0, lambda: print("fires at t=10ms"))
        sim.run(until=100.0)

    The simulator never advances past an event without executing it, and it
    raises :class:`SimulationError` on attempts to schedule in the past.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: List[List[Any]] = []
        self._arena: List[List[Any]] = []
        self._sequence: int = 0
        self._executed: int = 0
        self._live: int = 0
        self._peak_live: int = 0
        self._cancelled_queued: int = 0
        # Cold allocations are counted instead of arena hits: every
        # scheduling is one or the other, so hits are derived.
        self._arena_misses: int = 0
        self._compactions: int = 0
        self._compaction_dropped: int = 0
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (not cancelled, not fired) events still queued:
        an O(1) counter, blind to tombstones awaiting lazy removal."""
        return self._live

    @property
    def executed(self) -> int:
        """Total events executed so far, exact at any moment -- including
        from inside a callback (the running event is already counted)."""
        return self._executed

    def stats(self) -> Dict[str, Any]:
        """The loop's counters (see ``docs/profiling.md``).

        Cancellations, heap pops and arena hits are derived (``scheduled
        = executed + pending + cancelled``; an entry leaves the heap by
        pop or by compaction; a push reuses an entry or allocates one)
        rather than counted per event.
        """
        scheduled = self._sequence
        arena_hits = scheduled - self._arena_misses
        return {
            "now_ms": self._now,
            "scheduled": scheduled,
            "executed": self._executed,
            "pending": self._live,
            "cancelled": scheduled - self._executed - self._live,
            "heap_pushes": scheduled,
            "heap_pops": (scheduled - len(self._queue)
                          - self._compaction_dropped),
            "compactions": self._compactions,
            "compaction_dropped": self._compaction_dropped,
            "peak_pending": self._peak_live,
            "arena_size": len(self._arena),
            "arena_hits": arena_hits,
            "arena_hit_rate": arena_hits / scheduled if scheduled else 0.0,
            # Same-tick lane and Event pool are gone; the ledger
            # (benchmarks/e2e/workloads.py) still indexes these, so they
            # read 0 until a benchmark-only PR retires the rows.
            "fast_lane": 0,
            "pool_hits": 0,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, callback: Callback,
                 args: Tuple[Any, ...] = ()) -> List[Any]:
        """Schedule ``callback(*args)`` at absolute virtual ``time``.

        The one way onto the heap: deliveries and one-shot kicks call it
        directly, :meth:`call_at` adds an :class:`EventHandle` for
        callers that may cancel.  ``args`` saves a closure per event.

        Returns:
            The heap entry; ``entry[1]`` is the generation tag a
            canceller must pin (see :meth:`_cancel`).

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        arena = self._arena
        if arena:
            entry = arena.pop()
            entry[0] = time
            entry[1] = sequence
            entry[2] = callback
            entry[3] = args
        else:
            self._arena_misses += 1
            entry = [time, sequence, callback, args]
        heapq.heappush(self._queue, entry)
        live = self._live + 1
        self._live = live
        if live > self._peak_live:
            self._peak_live = live
        return entry

    def call_at(self, time: float, callback: Callback,
                args: Tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback`` to run at absolute virtual ``time``.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        return EventHandle(self, self.schedule(time, callback, args))

    def call_after(self, delay: float, callback: Callback,
                   args: Tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ms from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback, args)

    def call_soon(self, callback: Callback,
                  args: Tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback`` at the current instant (after queued peers)."""
        return self.call_at(self._now, callback, args)

    def call_every(self, period_ms: float, callback: Callback,
                   until_ms: float) -> None:
        """Run ``callback`` now and every ``period_ms`` until ``until_ms``
        (inclusive).

        Each firing schedules only the next one, so arming a long horizon
        keeps O(1) live events instead of O(until/period) -- the pattern
        the periodic safety/liveness observers rely on.  Ticks land at
        exactly ``now + k * period_ms``.

        Raises:
            ValueError: if ``period_ms`` is not positive.
        """
        if period_ms <= 0:
            raise ValueError(
                f"period_ms must be positive, got {period_ms}")

        def tick(at_ms: float) -> None:
            callback()
            next_ms = at_ms + period_ms
            if next_ms <= until_ms:
                self.schedule(next_ms, tick, (next_ms,))

        if self._now <= until_ms:
            self.schedule(self._now, tick, (self._now,))

    # ------------------------------------------------------------------
    # Cancellation (internal; EventHandle and Timer delegate here)
    # ------------------------------------------------------------------
    def _cancel(self, entry: List[Any], sequence: int) -> bool:
        """Tombstone ``entry`` if it is still the scheduling ``sequence``
        names and has not fired; True if it was live and is now cancelled.
        The entry stays in the heap until popped or compacted away."""
        if entry[1] != sequence or entry[2] is None:
            return False
        entry[2] = None
        entry[3] = None
        self._live -= 1
        cancelled = self._cancelled_queued + 1
        self._cancelled_queued = cancelled
        if (cancelled > _COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._queue)):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop tombstones and re-heapify; pops stay in the same order
        because heap keys are unique ``(time, sequence)`` pairs.

        Mutates the queue in place: ``run()`` holds a reference to it
        across callbacks, and callbacks may trigger compaction.
        """
        queue = self._queue
        keep = [entry for entry in queue if entry[2] is not None]
        self._arena.extend(entry for entry in queue if entry[2] is None)
        self._compaction_dropped += len(queue) - len(keep)
        queue[:] = keep
        heapq.heapify(queue)
        self._cancelled_queued = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue is empty, ``until`` is reached, or the budget
        of ``max_events`` is exhausted.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose naturally (``run(until=100); run(until=200)``).

        Returns:
            Number of events executed by this call.

        Raises:
            SimulationError: if called from inside a callback.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        queue = self._queue
        recycle = self._arena.append
        pop = heapq.heappop
        deadline = _INF if until is None else until
        first = executed = self._executed
        last = sys.maxsize if max_events is None else first + max_events
        try:
            while queue and executed < last:
                entry = queue[0]
                time = entry[0]
                if time > deadline:
                    break
                pop(queue)
                # Recycled before the callback runs, so the deliveries it
                # causes reuse the entry it vacated.
                recycle(entry)
                callback = entry[2]
                if callback is None:
                    self._cancelled_queued -= 1
                    continue
                args = entry[3]
                # Cleared slots make this event's handle inert and keep
                # a parked entry from pinning a delivered payload.
                entry[2] = entry[3] = None
                self._now = time
                # Stored per event: `executed` and stats() must be
                # exact inside the callback and after it raises.
                executed += 1
                self._executed = executed
                self._live -= 1
                callback(*args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed - first

    def step(self) -> bool:
        """Execute the single next event.

        Returns:
            True if an event was executed; False if the queue was empty.
        """
        return self.run(max_events=1) == 1

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run to quiescence; guard against runaway event loops.

        Raises:
            SimulationError: if ``max_events`` is exceeded, which almost
                always indicates a timer rescheduling itself unconditionally.
        """
        executed = self.run(max_events=max_events)
        if self.pending:
            raise SimulationError(
                f"drain exceeded {max_events} events with "
                f"{self.pending} still pending"
            )
        return executed
