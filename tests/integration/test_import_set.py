"""A run loads only the protocols it builds.

Every ``repro`` command, example and ledger repetition is a fresh
process, and what it imports before its first event is paid per process.
Packages re-export nothing, ``build_cluster`` imports a protocol when it
first builds it, and ``multiprocessing`` loads at the first fan-out: so a
cell of one protocol, built and run in a fresh interpreter through
``run_cell``, loads none of the other protocols, none of the scenario
library and its adversaries, and no process pool.  The checks are module
names, not seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Builds and runs one short closed-loop cell of the protocol named on
#: the command line, then prints the modules the process holds.
CHILD = """\
import json, sys
from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.harness.runner import Cell, run_cell

protocol = ProtocolName(sys.argv[1])
result = run_cell(Cell(
    ClusterConfig(t=1, protocol=protocol),
    WorkloadConfig(num_clients=2, request_size=64, duration_ms=400.0,
                   warmup_ms=0.0)))
assert result.committed > 0, result
print(json.dumps(sorted(sys.modules)))
"""

BASELINES = {"paxos", "pbft", "zab", "zyzzyva"}


def loaded_after_a_cell(protocol):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CHILD, protocol], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def protocols_in(modules):
    return {name.split(".")[2] for name in modules
            if name.startswith("repro.protocols.")
            and name.split(".")[2] in BASELINES | {"xpaxos"}}


def test_an_xpaxos_cell_loads_no_baseline_scenario_library_or_pool():
    modules = loaded_after_a_cell("xpaxos")
    assert protocols_in(modules) == {"xpaxos"}
    for name in ("repro.faults.adversary", "repro.scenarios.library",
                 "multiprocessing"):
        assert name not in modules, name


def test_a_pbft_cell_loads_no_xpaxos():
    modules = loaded_after_a_cell("pbft")
    assert protocols_in(modules) == {"pbft"}
    assert "repro.protocols.xpaxos" not in modules
