"""Objects a replica's logs hold per committed request, held to a budget.

What a committed request costs in memory, and in the deallocation a
checkpoint pays when it truncates the logs, is the objects its log
entries keep alive: the entry, its batch, each request with its
signature, digests, tuples and bytes.  This runs the ledger's
``bcast-t2-lan-closed`` (PBFT, Zyzzyva and Zab at t = 2) and
``xpaxos-lan-closed`` workloads at 1/20 of their virtual duration, seed
0, and counts the distinct objects reachable (``gc.get_referents``, classes
left out) from the entries of replica 0's commit and prepare logs, per
``Request`` among them.  The count is exact for a seed, so the budget is
the measured value plus 2%; a change that lowers it should lower the
budget in the same change.

Wire classes are laid out in slots (``repro.crypto.primitives.wire``),
so none of those objects may be an instance dict.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import workloads  # noqa: E402
from repro.smr.messages import Request  # noqa: E402

SCALE = 1 / 20
SLACK = 1.02

#: Objects reachable from replica 0's logs per request they hold,
#: measured at 1/20 scale, seed 0.
BUDGET = {
    "bcast-t2-lan-closed": 3.129,
    "xpaxos-lan-closed": 8.144,
}


def reachable(roots):
    """Every distinct object reachable from ``roots``, classes (and so
    modules and functions) left out."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


def log_objects(name):
    """Kinds of the objects replica 0's logs hold, over the cells of
    workload ``name``."""
    kinds = Counter()
    for cell in workloads.WORKLOADS[name]:
        runtime, driver, *_ = workloads.build_cell(cell, 0, SCALE)
        driver.run()
        replica = runtime.replica(0)
        logs = [replica.commit_log, getattr(replica, "prepare_log", None)]
        roots = [entry for log in logs if log is not None
                 for _, entry in log.items()]
        kinds.update(type(obj) for obj in reachable(roots))
    return kinds


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_objects_per_committed_request_within_budget(name):
    kinds = log_objects(name)
    assert kinds[Request] > 0
    assert kinds[dict] == 0, f"{kinds[dict]} dicts"
    measured = sum(kinds.values()) / kinds[Request]
    assert measured <= BUDGET[name] * SLACK, (
        f"{name}: {measured:.3f} objects per committed request, "
        f"budget {BUDGET[name]:.3f} + 2%")
