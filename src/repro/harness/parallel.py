"""Process-pool executor layer for embarrassingly parallel harness work.

Scenario-matrix cells and bench-sweep points are deterministic and
independent: each one builds its entire cluster (simulator, network,
replicas, clients, RNG streams) from an explicit seed, never from shared
mutable state.  That makes them safe to farm out to worker processes and
merge back **in canonical task order**, so the merged output of a
``--jobs N`` run is byte-identical to the sequential run.

Contract enforced here:

* **Ordered merge** -- :func:`parallel_map` returns one
  :class:`Outcome` per task, in the exact order the tasks were given,
  regardless of which worker finished first.
* **Crash isolation** -- a task that raises, or whose worker process
  dies outright, fails *only its own* :class:`Outcome` (the error text
  is captured); every other task is unaffected.
* **No pool below 2 jobs** -- ``jobs <= 1`` (or a single task) runs in
  the calling process, so the sequential path stays the reference
  behaviour and never pays fork/pipe overhead.
* **No inherited RNG state** -- workers are forked, so they inherit the
  parent's *global* ``random`` module state at whatever point the fork
  happened.  Any draw from that global stream would make results depend
  on scheduling.  :func:`guard_global_rng` wraps a task function and
  fails it loudly if it advances the global RNG; all harness task
  functions use it, which is what lets every cell derive its randomness
  purely from its own string-derived seed.

The end-to-end ledger (``benchmarks/e2e/``) intentionally does **not**
use this layer: it reports host seconds, and sibling workers competing
for cores would inflate them (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["Outcome", "default_jobs", "guard_global_rng", "parallel_map",
           "resolve_jobs"]


@dataclass
class Outcome:
    """Result of one parallel task (in task order, not finish order)."""

    index: int
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Did the task complete without raising or crashing?"""
        return self.error is None


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` ("use every core")."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """Map a ``--jobs`` flag value to a worker count (0 = all cores)."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return default_jobs() if jobs == 0 else jobs


class GlobalRngDrawError(RuntimeError):
    """A task drew from the module-level ``random`` stream.

    Global draws are forbidden on the cell/point path: a forked worker
    inherits the parent's global RNG state, so any such draw would make
    results depend on *when* the fork happened and break the
    byte-identical merge contract.  Use a per-component stream from
    :mod:`repro.common.rng` (or a string-seeded ``random.Random``)
    instead.
    """


def guard_global_rng(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Wrap ``fn`` so a global-RNG draw during the call fails the task.

    Snapshots the global ``random`` state before the call and verifies
    it is untouched after -- the cheap runtime assertion behind the
    "never inherited global RNG state" rule.  A clean task never reads
    the global stream either, so the guard itself cannot introduce
    divergence between the in-process and worker paths.
    """

    def guarded(task: Any) -> Any:
        state = random.getstate()
        value = fn(task)
        if random.getstate() != state:
            raise GlobalRngDrawError(
                f"task {task!r} advanced the global random stream; "
                "cells/points must draw only from explicitly seeded "
                "repro.common.rng streams")
        return value

    return guarded


# ----------------------------------------------------------------------
def _run_inline(fn: Callable[[Any], Any], index: int, task: Any) -> Outcome:
    try:
        return Outcome(index=index, value=fn(task))
    except Exception:
        return Outcome(index=index, error=traceback.format_exc())


def _inline_map(fn: Callable[[Any], Any],
                tasks: Sequence[Any]) -> List[Outcome]:
    """The ``jobs <= 1`` path: plain sequential execution, no processes."""
    return [_run_inline(fn, index, task)
            for index, task in enumerate(tasks)]


def _child_main(conn, fn: Callable[[Any], Any], index: int,
                task: Any) -> None:
    """Worker body: run one task, ship the Outcome back over the pipe."""
    try:
        outcome = _run_inline(fn, index, task)
        try:
            conn.send(outcome)
        except Exception:
            # The value failed to pickle -- still report *something* so
            # the task fails alone instead of looking like a dead worker.
            conn.send(Outcome(index=index,
                              error="result not picklable:\n"
                                    + traceback.format_exc()))
    finally:
        conn.close()


def _pool_map(fn: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: int) -> List[Outcome]:
    """Farm tasks to forked worker processes, one process per task.

    Fork (not spawn) so task functions may close over live objects --
    scenario schedule factories are plain callables, not picklable
    specs.  One short-lived process per task keeps crash isolation
    absolute: a worker dying mid-cell only EOFs its own pipe.
    ``multiprocessing`` is imported here, at the first fan-out: a run
    that never forks does not load it.
    """
    import multiprocessing.connection

    if "fork" not in multiprocessing.get_all_start_methods():
        # No fork (e.g. some exotic host): fall back to the sequential
        # reference path rather than require picklable closures.
        return _inline_map(fn, tasks)
    ctx = multiprocessing.get_context("fork")
    outcomes: List[Optional[Outcome]] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    live = {}  # parent pipe end -> (process, index)

    def start_one() -> None:
        index = pending.pop(0)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_main,
                           args=(child_conn, fn, index, tasks[index]),
                           name=f"repro-parallel-{index}")
        proc.start()
        child_conn.close()
        live[parent_conn] = (proc, index)

    while pending or live:
        while pending and len(live) < jobs:
            start_one()
        ready = multiprocessing.connection.wait(list(live))
        for conn in ready:
            proc, index = live.pop(conn)
            try:
                outcome = conn.recv()
            except EOFError:
                proc.join()
                outcome = Outcome(
                    index=index,
                    error=f"worker process died (exit code "
                          f"{proc.exitcode}) before reporting a result")
            else:
                proc.join()
            conn.close()
            outcomes[index] = outcome
    return outcomes  # type: ignore[return-value]


def parallel_map(fn: Callable[[Any], Any], tasks: Sequence[Any],
                 jobs: int = 1) -> List[Outcome]:
    """Run ``fn(task)`` for every task, ``jobs`` at a time.

    Returns one :class:`Outcome` per task **in task order** -- the
    deterministic merge point for ``--jobs N`` runs.  ``jobs <= 1`` or a
    single task short-circuits to the in-process path (no pool is ever
    spawned); ``fork`` must be available for the pooled path, which is
    the case on every platform CI runs on.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return _inline_map(fn, tasks)
    return _pool_map(fn, tasks, jobs)
