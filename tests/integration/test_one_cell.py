"""One run path: under ``src/``, a cell is built, driven and read in one
place.

``repro.harness.runner.run_cell`` assembles the cluster (through
``ExperimentRunner.build``), arms the faults and drives the workload;
the conformance matrix, the sweeps, ``repro profile`` and Figure 10 all
go through it.  A second builder drifts from the first: Figure 10 once
drove the ZooKeeper service with operations it refused, because the run
path of the day could not drive it.  This scan fails when a module other
than the runner calls one of a run's three constructors again.
"""

import ast
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: A run's constructors: where each is defined, and the one function
#: outside that module that may call it.
RUN_PATH = {
    "build_cluster": ("repro/protocols/registry.py",
                      "repro/harness/runner.py", "build"),
    "make_driver": ("repro/workloads/clients.py",
                    "repro/harness/runner.py", "run_cell"),
    "FaultInjector": ("repro/faults/injector.py",
                      "repro/harness/runner.py", "run_cell"),
}


class _Calls(ast.NodeVisitor):
    """``(name called, innermost enclosing function)`` of every call."""

    def __init__(self):
        self.calls = []
        self._functions = ["<module>"]

    def visit_FunctionDef(self, node):
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        self.calls.append((name, self._functions[-1]))
        self.generic_visit(node)


@functools.lru_cache(maxsize=None)
def _all_calls():
    """``(name called, module, function)`` for every call under
    ``src/``, parsed once for every test here."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Calls()
        visitor.visit(ast.parse(path.read_text()))
        module = path.relative_to(SRC).as_posix()
        found += [(called, module, function)
                  for called, function in visitor.calls]
    return tuple(found)


def callers(name):
    """``(module, function)`` of every call to ``name`` under ``src/``."""
    return [(module, function)
            for called, module, function in _all_calls() if called == name]


def test_the_scan_sees_calls():
    # A scan that found nothing would pass vacuously.
    assert ("repro/harness/runner.py", "run_cell") in callers("make_driver")


@pytest.mark.parametrize("name", sorted(RUN_PATH))
def test_one_caller_outside_its_own_module(name):
    home, module, function = RUN_PATH[name]
    outside = [call for call in callers(name) if call[0] != home]
    assert outside == [(module, function)]
