"""Scripted fault schedules: crashes, recoveries, partitions.

The Figure 9 experiment is a fault schedule: "At time 180 sec, we crash the
follower, VA.  At time 300 sec, we crash the CA replica.  At time 420 sec,
we crash the third replica, JP.  Each replica recovers 20 sec after having
crashed."  :class:`FaultSchedule` expresses exactly such timelines and
:class:`FaultInjector` executes them against a running cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.smr.runtime import ClusterRuntime


@dataclass(frozen=True)
class FaultEvent:
    """One scripted event in a fault schedule."""

    at_ms: float
    kind: str          # "crash" | "recover" | "partition" | "heal" | "suspect"
    replica: Optional[int] = None
    pair: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.kind in ("crash", "recover", "suspect") \
                and self.replica is None:
            raise ValueError(f"{self.kind} event needs a replica id")
        if self.kind in ("partition", "heal") and self.pair is None:
            raise ValueError(f"{self.kind} event needs a node pair")


@dataclass
class FaultSchedule:
    """An ordered list of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def crash(self, at_ms: float, replica: int) -> "FaultSchedule":
        """Crash ``replica`` at ``at_ms``."""
        self.events.append(FaultEvent(at_ms, "crash", replica=replica))
        return self

    def recover(self, at_ms: float, replica: int) -> "FaultSchedule":
        """Recover ``replica`` at ``at_ms``."""
        self.events.append(FaultEvent(at_ms, "recover", replica=replica))
        return self

    def crash_for(self, at_ms: float, replica: int,
                  downtime_ms: float) -> "FaultSchedule":
        """Crash then recover after ``downtime_ms`` (the Figure 9 pattern)."""
        return self.crash(at_ms, replica).recover(at_ms + downtime_ms,
                                                  replica)

    def partition(self, at_ms: float, a: str, b: str) -> "FaultSchedule":
        """Block the pair ``(a, b)`` at ``at_ms``."""
        self.events.append(FaultEvent(at_ms, "partition", pair=(a, b)))
        return self

    def heal(self, at_ms: float, a: str, b: str) -> "FaultSchedule":
        """Unblock the pair ``(a, b)`` at ``at_ms``."""
        self.events.append(FaultEvent(at_ms, "heal", pair=(a, b)))
        return self

    def partition_for(self, at_ms: float, a: str, b: str,
                      downtime_ms: float) -> "FaultSchedule":
        """Block the pair, then heal it after ``downtime_ms``."""
        return self.partition(at_ms, a, b).heal(at_ms + downtime_ms, a, b)

    def isolate(self, at_ms: float, node: str,
                others: Sequence[str]) -> "FaultSchedule":
        """Block ``node`` from every node in ``others`` at ``at_ms``."""
        for other in others:
            if other != node:
                self.partition(at_ms, node, other)
        return self

    def heal_isolation(self, at_ms: float, node: str,
                       others: Sequence[str]) -> "FaultSchedule":
        """Unblock ``node`` from every node in ``others`` at ``at_ms``."""
        for other in others:
            if other != node:
                self.heal(at_ms, node, other)
        return self

    def suspect(self, at_ms: float, replica: int) -> "FaultSchedule":
        """Make ``replica`` suspect its current view at ``at_ms``.

        Triggers a view change without any actual crash or partition: the
        injector calls ``replica.suspect_view(replica.view)``, which every
        protocol's replica defines; a crashed replica ignores it.
        """
        self.events.append(FaultEvent(at_ms, "suspect", replica=replica))
        return self

    # -- composition ------------------------------------------------------
    def merge(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule containing the events of both, by time."""
        merged = FaultSchedule(list(self.events) + list(other.events))
        merged.events.sort(key=lambda e: e.at_ms)
        return merged

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return self.merge(other)

    @property
    def end_ms(self) -> float:
        """Time of the last scripted event (0 when empty)."""
        return max((e.at_ms for e in self.events), default=0.0)

    # -- canned patterns --------------------------------------------------
    @classmethod
    def rolling_crashes(cls, replicas: Sequence[int], start_ms: float,
                        interval_ms: float,
                        downtime_ms: float) -> "FaultSchedule":
        """Crash each replica in turn, one at a time.

        ``downtime_ms`` must not exceed ``interval_ms`` if at most one
        replica should be down at any instant (the Figure 9 cadence).
        The paper's Figure 9 is ``rolling_crashes((1, 0, 2), 180_000.0,
        120_000.0, 20_000.0)`` in Table 4's t = 1 layout: VA, CA, JP.
        """
        schedule = cls()
        for index, replica in enumerate(replicas):
            schedule.crash_for(start_ms + index * interval_ms, replica,
                               downtime_ms)
        return schedule

    @classmethod
    def flapping_partition(cls, a: str, b: str, start_ms: float,
                           period_ms: float, flaps: int,
                           duty: float = 0.5) -> "FaultSchedule":
        """Block/heal the pair ``flaps`` times: each flap blocks for
        ``duty * period_ms`` then heals for the rest of the period."""
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        schedule = cls()
        for flap in range(flaps):
            at = start_ms + flap * period_ms
            schedule.partition_for(at, a, b, duty * period_ms)
        return schedule


class FaultInjector:
    """Executes a :class:`FaultSchedule` against a cluster."""

    def __init__(self, runtime: ClusterRuntime) -> None:
        self.runtime = runtime
        self.injected: List[FaultEvent] = []

    def arm(self, schedule: FaultSchedule) -> None:
        """Schedule every event on the cluster's simulator."""
        for event in schedule.events:
            self.runtime.sim.call_at(
                event.at_ms, lambda e=event: self._fire(e))

    def _fire(self, event: FaultEvent) -> None:
        self.injected.append(event)
        if event.kind == "crash":
            assert event.replica is not None
            self.runtime.replica(event.replica).crash()
        elif event.kind == "recover":
            assert event.replica is not None
            self.runtime.replica(event.replica).recover()
        elif event.kind == "partition":
            assert event.pair is not None
            self.runtime.network.partitions.block_pair(*event.pair)
        elif event.kind == "heal":
            assert event.pair is not None
            self.runtime.network.partitions.unblock_pair(*event.pair)
        elif event.kind == "suspect":
            assert event.replica is not None
            replica = self.runtime.replica(event.replica)
            if not replica.crashed:
                replica.suspect_view(replica.view)
