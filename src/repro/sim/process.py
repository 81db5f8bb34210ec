"""Higher-level simulation primitives: named processes and restartable timers.

Replicas and clients are :class:`Process` subclasses.  A process can be
*crashed* (it stops receiving events) and later *recovered*; its timers are
automatically invalidated on crash, which models a machine reboot losing its
in-memory timer wheel.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.common.errors import SimulationError
from repro.sim.core import EventHandle, Simulator


class Timer:
    """A restartable one-shot timer bound to a process.

    Mirrors the timers of the paper's pseudocode (``timer_c``,
    ``timer_net``, ``timer_vc``, ``timer_req``): ``start`` arms it,
    ``stop`` disarms it, and re-``start`` while armed restarts it.

    Protocols restart these on virtually every reply, so the timer holds
    the heap entry :meth:`Simulator.schedule` returns and cancels through
    the scheduler directly -- no :class:`EventHandle` or closure is
    allocated per start/stop cycle.
    """

    __slots__ = ("_process", "_callback", "label", "_entry", "_sequence")

    def __init__(self, process: "Process", callback: Callable[[], None],
                 label: str = "timer"):
        self._process = process
        self._callback = callback
        #: The paper's name for this timer; identifies it when debugging.
        self.label = label
        self._entry: Optional[List[Any]] = None
        self._sequence = -1
        process._register_timer(self)

    @property
    def armed(self) -> bool:
        """True if the timer is counting down."""
        entry = self._entry
        return (entry is not None and entry[1] == self._sequence
                and entry[2] is not None)

    @property
    def deadline(self) -> Optional[float]:
        """Virtual time at which the timer will fire, or None if disarmed."""
        if self.armed:
            assert self._entry is not None
            return self._entry[0]
        return None

    def start(self, delay_ms: float) -> None:
        """(Re)arm the timer to fire ``delay_ms`` from now."""
        self.stop()
        if delay_ms < 0:
            raise SimulationError(f"negative delay {delay_ms}")
        sim = self._process.sim
        entry = sim.schedule(sim.now + delay_ms, self._fire)
        self._entry = entry
        self._sequence = entry[1]

    def stop(self) -> None:
        """Disarm the timer. Idempotent."""
        entry = self._entry
        if entry is not None:
            self._process.sim._cancel(entry, self._sequence)
            self._entry = None

    def discard(self) -> None:
        """Disarm for good: the process forgets the timer.  For a timer
        whose owner is dropped before the process is, which would
        otherwise stay registered for the rest of the run."""
        self.stop()
        self._process._timers.remove(self)

    def _fire(self) -> None:
        self._entry = None
        if self._process.crashed:
            return
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self.armed else "idle"
        return f"<Timer {self.label} of {self._process.name} ({state})>"


class Process:
    """A named participant in the simulation (replica or client).

    Subclasses schedule work through :meth:`after` and :class:`Timer`; both
    automatically become no-ops while the process is crashed, so protocol
    code never needs crash checks around timer callbacks.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._crashed = False
        self._timers: List[Timer] = []

    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """True while the process is down."""
        return self._crashed

    def crash(self) -> None:
        """Stop the process: all armed timers are lost, and future events
        scheduled through :meth:`after` are suppressed."""
        self._crashed = True
        for timer in self._timers:
            timer.stop()

    def recover(self) -> None:
        """Bring the process back up.  Subclasses override to re-arm timers
        and re-join the protocol; they must call ``super().recover()``."""
        self._crashed = False

    # ------------------------------------------------------------------
    def after(self, delay_ms: float,
              callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` unless the process is crashed when it fires."""
        return self.sim.call_after(delay_ms, self._run_unless_crashed,
                                   (callback,))

    def _run_unless_crashed(self, callback: Callable[[], None]) -> None:
        if not self._crashed:
            callback()

    def _register_timer(self, timer: Timer) -> None:
        self._timers.append(timer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else "up"
        return f"<{type(self).__name__} {self.name} ({state})>"
