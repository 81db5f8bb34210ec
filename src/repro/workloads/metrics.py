"""Measurement utilities: latency reservoirs and windowed throughput.

Latency is recorded per committed request in virtual milliseconds;
throughput is computed over fixed windows (1 s by default), matching how
the paper reports its latency-vs-throughput curves (Figures 7, 10) and the
throughput timeline under faults (Figure 9).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class LatencySummary:
    """Aggregate latency statistics in milliseconds."""

    count: int
    mean: float
    p50: float
    p99: float
    maximum: float


#: One committed request: send time, commit time (virtual ms) and rid.
Completion = Tuple[float, float, Tuple[int, int]]


class Completions:
    """One client's committed requests, oldest first, read as a sequence
    of :data:`Completion` tuples (``len``, truth, indexing, iteration).

    Kept in three typed arrays, 24 bytes a request, instead of a list of
    tuples each holding two floats and a rid: a closed loop commits tens
    of thousands per cell, and every one stays until the cell is read.
    The rid is rebuilt from the client's id and the request's timestamp.
    """

    __slots__ = ("client_id", "_sent", "_done", "_timestamps")

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self._sent = array("d")
        self._done = array("d")
        self._timestamps = array("q")

    def record(self, sent_ms: float, done_ms: float, timestamp: int) -> None:
        """Append the client's request ``timestamp``, sent at ``sent_ms``
        and committed at ``done_ms``."""
        self._sent.append(sent_ms)
        self._done.append(done_ms)
        self._timestamps.append(timestamp)

    def __len__(self) -> int:
        return len(self._timestamps)

    def __getitem__(self, index: int) -> Completion:
        return (self._sent[index], self._done[index],
                (self.client_id, self._timestamps[index]))

    def __iter__(self) -> Iterator[Completion]:
        client = self.client_id
        for sent, done, timestamp in zip(self._sent, self._done,
                                         self._timestamps):
            yield sent, done, (client, timestamp)


class LatencyRecorder:
    """Collects per-request latencies after a warmup cutoff, as doubles
    in one typed array."""

    def __init__(self, warmup_ms: float = 0.0) -> None:
        self.warmup_ms = warmup_ms
        self._samples = array("d")

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
