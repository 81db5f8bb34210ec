"""The benchmark's only host-clock reads.

Lint rule D002 keeps host time out of simulated code; the ledger's whole
job is to measure host seconds, so its reads are confined to this file
and marked one by one.
"""

from __future__ import annotations

import time


def wall() -> float:
    """Monotonic wall clock in seconds.

    CLOCK_MONOTONIC is system-wide on Linux, so a value taken by the
    parent just before it spawns a repetition is comparable with values
    the child takes: that difference is how set-up time includes
    interpreter start-up and ``import repro``.
    """
    # Host time is what the ledger measures.
    return time.perf_counter()  # repro: lint-ok[D002]


def cpu() -> float:
    """User+system CPU seconds of this process: ``wall`` without the
    intervals in which the box ran something else."""
    # Host time is what the ledger measures.
    return time.process_time()  # repro: lint-ok[D002]
