"""Measurement utilities: latency reservoirs and windowed throughput.

Latency is recorded per committed request in virtual milliseconds;
throughput is computed over fixed windows (1 s by default), matching how
the paper reports its latency-vs-throughput curves (Figures 7, 10) and the
throughput timeline under faults (Figure 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class LatencySummary:
    """Aggregate latency statistics in milliseconds."""

    count: int
    mean: float
    p50: float
    p99: float
    maximum: float


class LatencyRecorder:
    """Collects per-request latencies after a warmup cutoff."""

    def __init__(self, warmup_ms: float = 0.0) -> None:
        self.warmup_ms = warmup_ms
        self._samples: List[float] = []

    def record(self, now_ms: float, latency_ms: float) -> None:
        """Record one completion at virtual time ``now_ms``."""
        if now_ms >= self.warmup_ms:
            self._samples.append(latency_ms)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    def summary(self) -> Optional[LatencySummary]:
        """Aggregate statistics, or None if nothing was recorded."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        n = len(ordered)

        def pct(q: float) -> float:
            index = min(n - 1, max(0, math.ceil(q * n) - 1))
            return ordered[index]

        return LatencySummary(
            count=n,
            mean=sum(ordered) / n,
            p50=pct(0.50),
            p99=pct(0.99),
            maximum=ordered[-1],
        )


class ThroughputRecorder:
    """Counts completions per fixed window of virtual time."""

    def __init__(self, window_ms: float = 1_000.0,
                 warmup_ms: float = 0.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = window_ms
        self.warmup_ms = warmup_ms
        self._windows: Dict[int, int] = {}
        self._total = 0
        self._first_ms: Optional[float] = None
        self._last_ms: Optional[float] = None

    def record(self, now_ms: float, count: int = 1) -> None:
        """Record ``count`` completions at virtual time ``now_ms``."""
        if now_ms < self.warmup_ms:
            return
        window = int(now_ms // self.window_ms)
        self._windows[window] = self._windows.get(window, 0) + count
        self._total += count
        if self._first_ms is None:
            self._first_ms = now_ms
        self._last_ms = now_ms

    @property
    def total(self) -> int:
        """Total completions recorded after warmup."""
        return self._total

    def mean_kops(self, duration_ms: float) -> float:
        """Average throughput in kops/s over an explicit duration."""
        if duration_ms <= 0:
            return 0.0
        return self._total / duration_ms  # ops/ms == kops/s

    def timeline(self) -> List[Tuple[float, float]]:
        """``(window start ms, kops/s)`` series -- the Figure 9 y-axis."""
        return [
            (w * self.window_ms, count / self.window_ms)
            for w, count in sorted(self._windows.items())
        ]
