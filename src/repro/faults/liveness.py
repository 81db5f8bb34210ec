"""Liveness checker: commit progress within a bound while the system is
healthy.

The XFT availability guarantee is conditional: progress is promised only
when enough replicas are correct and synchronous (outside anarchy, with a
quorum up and connected).  :class:`LivenessChecker` operationalises that as
a windowed invariant over a running cluster:

    whenever the system has been *eligible* for longer than ``bound_ms``
    without a single new client-visible commit, a violation is recorded.

Eligibility is the strictest healthy state -- every replica up and no
network partitions (:func:`default_eligible`) -- so stalls caused by
injected faults never count, but the system must resume committing within
``bound_ms`` of the last fault healing.

Like :meth:`SafetyChecker.observe_periodically`, sampling self-reschedules
one simulator event at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.smr.runtime import ClusterRuntime


@dataclass(frozen=True)
class LivenessViolation:
    """One window in which an eligible system failed to commit."""

    at_ms: float           # when the violation was flagged
    stalled_since_ms: float  # start of the commit-free eligible window

    def __str__(self) -> str:
        return (f"no commits in the {self.at_ms - self.stalled_since_ms:.0f}"
                f" ms up to t={self.at_ms:.0f} ms despite a healthy system")


def default_eligible(runtime: ClusterRuntime) -> bool:
    """Strict health: every replica up and no blocked pairs."""
    if any(r.crashed for r in runtime.replicas):
        return False
    return not runtime.network.partitions.blocked_pairs


class LivenessChecker:
    """Samples commit progress and flags stalls of a healthy cluster.

    Args:
        runtime: the cluster under observation.
        bound_ms: maximum tolerated commit-free eligible window.  Must
            comfortably exceed the protocol's view-change plus client
            retransmission timeouts, otherwise recovery itself is flagged.
        period_ms: sampling period.
    """

    def __init__(self, runtime: ClusterRuntime, bound_ms: float,
                 period_ms: float = 100.0) -> None:
        if bound_ms <= 0 or period_ms <= 0:
            raise ValueError("bound_ms and period_ms must be positive")
        self.runtime = runtime
        self.bound_ms = bound_ms
        self.period_ms = period_ms
        self.violations: List[LivenessViolation] = []
        self._last_count = self._committed()
        #: Start of the current commit-free eligible streak (None while
        #: ineligible).
        self._stalled_since: Optional[float] = None
        #: Whether the streak in progress has already been reported.
        self._flagged = False

    # ------------------------------------------------------------------
    def _committed(self) -> int:
        """Client-visible commits: what liveness actually promises."""
        return sum(len(c.completions) for c in self.runtime.clients)

    def sample(self) -> None:
        """Take one observation at the current virtual time."""
        now = self.runtime.sim.now
        count = self._committed()
        progressed = count > self._last_count
        self._last_count = count
        if progressed or not default_eligible(self.runtime):
            # Commits happened, or the system is excused: reset the streak.
            self._stalled_since = None
            self._flagged = False
            return
        if self._stalled_since is None:
            self._stalled_since = now
            return
        if not self._flagged and now - self._stalled_since > self.bound_ms:
            self.violations.append(
                LivenessViolation(at_ms=now,
                                  stalled_since_ms=self._stalled_since))
            self._flagged = True

    def watch(self, until_ms: float) -> None:
        """Sample every ``period_ms`` until ``until_ms`` (inclusive),
        one live simulator event at a time."""
        self.runtime.sim.call_every(self.period_ms, self.sample, until_ms)

    # ------------------------------------------------------------------
    def assert_live(self) -> None:
        """Raise AssertionError if any violation was recorded."""
        if self.violations:
            raise AssertionError(
                "liveness violated: "
                + "; ".join(str(v) for v in self.violations[:5]))
