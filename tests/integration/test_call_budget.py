"""Python calls per commit on two ledger workloads, held to a budget.

Host seconds on a shared box move by tens of percent between runs; the
number of Python calls a commit costs does not.  This runs the ledger's
``bcast-t2-lan-closed`` (PBFT, Zyzzyva and Zab at t = 2) and
``xpaxos-lan-closed`` workloads at 1/20 of their virtual duration, seed
0, under cProfile -- enabled around ``driver.run()`` only, as the
ledger's traced repetition does -- and counts the calls of functions
defined under ``src/repro``.  C builtins, the standard library and
generated dataclass methods are left out, so a different CPython patch
release cannot move the count.

Each budget is the count measured when it was set, plus 2%.  A change
that adds per-message work fails here; one that removes some should
lower the budget in the same change.  How the counts were cut is in
``docs/profiling.md`` ("Calls per commit").
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import workloads  # noqa: E402

SCALE = 1 / 20
SLACK = 1.02

#: Calls per commit of functions under ``src/repro``, measured at 1/20
#: scale, seed 0.
BUDGET = {
    "bcast-t2-lan-closed": 108.02,
    "xpaxos-lan-closed": 127.86,
}

_REPRO = os.sep + os.path.join("src", "repro") + os.sep


def calls_per_commit(name: str) -> float:
    profiler = cProfile.Profile()
    result = workloads.run_workload(name, 0, SCALE, profiler, 0.0, 0.0)
    assert not result["problems"], result["problems"]
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    calls = sum(row[1] for (filename, _, _), row in stats.items()
                if _REPRO in filename)
    commits = sum(cell["counts"]["commits"] for cell in result["cells"])
    assert commits > 0
    return calls / commits


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_calls_per_commit_within_budget(name):
    measured = calls_per_commit(name)
    assert measured <= BUDGET[name] * SLACK, (
        f"{name}: {measured:.2f} calls per commit under src/repro, "
        f"budget {BUDGET[name]:.2f} + 2%")
