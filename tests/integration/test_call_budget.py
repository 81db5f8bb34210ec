"""Python calls per commit on two ledger workloads, held to a budget.

Host seconds on a shared box move by tens of percent between runs; the
number of Python calls a commit costs does not.  This runs the ledger's
``bcast-t2-lan-closed`` (PBFT, Zyzzyva and Zab at t = 2) and
``xpaxos-lan-closed`` workloads at 1/20 of their virtual duration, seed
0, under cProfile -- enabled around ``driver.run()`` only, as the
ledger's traced repetition does -- and counts the calls of functions
defined under ``src/repro`` and of the code ``repro.crypto.primitives``
generates at run time: the ``<wire ...>`` constructors and the
``<encode ...>`` / ``<keep ...>`` canonical encoders.  Work moved into
generated code is still counted.  C builtins, the standard library and
the dataclass module's own generated methods are left out, so a
different CPython patch release cannot move the count.

Each budget is the count measured when it was set, plus 2%.  A change
that adds per-message work fails here; one that removes some should
lower the budget in the same change.  How the counts were cut is in
``docs/profiling.md`` ("Calls per commit").

The same runs pin what went on the wire, exactly: messages sent and the
bytes they claimed (each payload's ``wire_bytes``).  A changed modelled
size moves simulated time; it must be a deliberate change here.
"""

from __future__ import annotations

import cProfile
import functools
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

#: Calls per commit of functions under ``src/repro`` and of generated
#: code, measured at 1/20 scale, seed 0.
BUDGET = {
    "bcast-t2-lan-closed": 103.55,
    "xpaxos-lan-closed": 89.66,
}

#: Messages sent and modelled bytes on the wire in the same runs.
WIRE = {
    "bcast-t2-lan-closed": {"net.bytes_sent": 1216184,
                            "net.msgs_sent": 9494},
    "xpaxos-lan-closed": {"net.bytes_sent": 227744, "net.msgs_sent": 2291},
}

_REPRO = os.sep + os.path.join("src", "repro") + os.sep
#: Pseudo file names of the code ``repro.crypto.primitives`` generates.
_GENERATED = ("<wire ", "<encode ", "<keep ")


def counted(filename: str) -> bool:
    """Is a function of ``filename`` held to the budget?"""
    return _REPRO in filename or filename.startswith(_GENERATED)


@functools.lru_cache(maxsize=None)
def measured(name: str):
    """Calls per commit, and the :data:`WIRE` counts, of one run."""
    profiler = cProfile.Profile()
    result = workloads.run_workload(name, 0, SCALE, profiler, 0.0, 0.0)
    assert not result["problems"], result["problems"]
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    calls = sum(row[1] for (filename, _, _), row in stats.items()
                if counted(filename))
    commits = sum(cell["counts"]["commits"] for cell in result["cells"])
    assert commits > 0
    wire = {key: sum(cell["counts"][key] for cell in result["cells"])
            for key in WIRE[name]}
    return calls / commits, wire


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_calls_per_commit_within_budget(name):
    calls, _ = measured(name)
    assert calls <= BUDGET[name] * SLACK, (
        f"{name}: {calls:.2f} calls per commit under src/repro "
        f"and in generated code, "
        f"budget {BUDGET[name]:.2f} + 2%")


@pytest.mark.parametrize("name", sorted(WIRE))
def test_wire_counts_are_pinned(name):
    _, wire = measured(name)
    assert wire == WIRE[name]


def test_generated_code_is_counted():
    from repro.crypto.primitives import _ENCODERS, digest_of
    from repro.protocols.xpaxos.messages import PreChk, ReplyMsg
    from repro.smr.messages import Request

    digest_of(PreChk(1, 0, b"s", 2))
    reply = ReplyMsg(0, 0, 1, 1, 0, b"", digest_of(b""))
    for code in (Request.__init__.__code__, _ENCODERS[PreChk].__code__,
                 type(reply).__init__.__code__):
        assert counted(code.co_filename), code.co_filename
    assert not counted("<frozen importlib._bootstrap>")
