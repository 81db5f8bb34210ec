"""S-series: simulator-hygiene rules.

The simulator core is both a correctness boundary (callbacks run in a
single virtual-time loop; anything that blocks or aliases state corrupts
every protocol above it) and the hottest shared code in the repository
(the ``sim`` and ``net`` rows of the end-to-end ledger's layer budget).
These rules pin the invariants that keep it that way.
"""

from __future__ import annotations

import ast
from typing import Dict, Tuple

from repro.analysis.base import (
    ModuleInfo,
    Rule,
    iter_loop_depth,
    path_contains,
    path_endswith,
    rule,
)

#: The only module allowed to manipulate the event heap directly.
_HEAP_ALLOWED = ("repro/sim/core.py",)

#: Modules whose classes sit on the simulator/network hot path.
_HOT_PATHS = ("repro/sim", "repro/net")

#: The simulated layers: code here runs inside simulator callbacks and
#: must never touch the host (the harness and CLI live outside the
#: simulation and do real I/O by design).
_SIM_LAYERS = ("repro/sim", "repro/net", "repro/protocols", "repro/smr",
               "repro/scenarios", "repro/faults", "repro/workloads",
               "repro/zk")

#: Blocking calls that stall the single-threaded event loop for real
#: wall-clock time (pair: ``mod.attr``; name: bare builtin).
_BLOCKING_PAIRS = frozenset({
    ("time", "sleep"),
    ("os", "system"),
    ("socket", "socket"), ("socket", "create_connection"),
    ("subprocess", "run"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("urllib", "urlopen"), ("requests", "get"), ("requests", "post"),
})
_BLOCKING_NAMES = frozenset({"input", "open"})

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict",
                            "deque", "OrderedDict", "Counter"})


@rule
class MutableDefaultRule(Rule):
    """Mutable default arguments alias state across calls.

    A ``def f(x, acc=[])`` default is evaluated once and shared by every
    call -- in scheduled callbacks this aliases state across *events*
    (and, worse, across replicas when the callable is a method), which
    the determinism tests then chase as a heisenbug.  Defaults must be
    ``None`` with an explicit guard, or an immutable value.
    """

    id = "S001"
    title = "mutable default argument"

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.report(default, "mutable default argument is "
                                     "evaluated once and shared by every "
                                     "call; use None and fill in inside "
                                     "the body")
            elif (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS):
                self.report(default, f"default {default.func.id}() is "
                                     "evaluated once and shared by every "
                                     "call; use None and fill in inside "
                                     "the body")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


@rule
class HeapOutsideCoreRule(Rule):
    """Direct ``heapq`` use belongs to ``sim/core.py`` alone.

    The event heap's invariants (uniform ``[time, sequence, callback,
    args]`` entries, in-place tombstones, recycling, compaction) live
    behind ``Simulator.schedule`` and the handles it feeds.  A second
    ``heapq`` user either duplicates those invariants or silently breaks
    them -- both have cost; schedule through the ``Simulator`` API
    instead.  Flagged at the import, one finding per module.
    """

    id = "S002"
    title = "heapq imported outside sim/core.py"

    def _check_import(self, node, names) -> None:
        if path_endswith(self._module, *_HEAP_ALLOWED):
            return
        if "heapq" in names:
            self.report(node, "direct heapq use outside sim/core.py; "
                              "go through the Simulator "
                              "schedule/call_at API")

    def visit_Import(self, node: ast.Import) -> None:
        self._check_import(node, [a.name for a in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_import(node, [node.module or ""])


@rule
class MissingSlotsHotClassRule(Rule):
    """Hot-path classes instantiated in loops need ``__slots__``.

    Objects created per event / per message inside the ``sim``/``net``
    loops dominate allocation; a ``__dict__``-bearing instance costs an
    extra allocation and roughly doubles the footprint, which every
    cell pays per event and per message.  Any class defined in
    a hot module (``repro/sim``, ``repro/net``) whose constructor runs
    inside a ``for``/``while`` body or comprehension of a hot module
    must declare ``__slots__`` (``@dataclass(slots=True)`` counts).
    """

    id = "S003"
    title = "hot-loop class without __slots__"

    def __init__(self) -> None:
        super().__init__()
        #: class name -> (path, line, has_slots)
        self._hot_classes: Dict[str, Tuple[str, int, bool]] = {}
        #: class names instantiated at loop depth > 0 in hot modules.
        self._loop_instantiated: Dict[str, Tuple[str, int]] = {}

    def check_module(self, module: ModuleInfo):
        self._module = module
        self._findings = []
        if not path_contains(module, *_HOT_PATHS):
            return []
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._hot_classes.setdefault(
                    node.name,
                    (module.path, node.lineno, self._has_slots(node)))
        for node, depth in iter_loop_depth(module.tree):
            if (depth > 0 and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)):
                self._loop_instantiated.setdefault(
                    node.func.id, (module.path, node.lineno))
        return []

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets):
                return True
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"):
                return True
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call) and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords):
                return True
        return False

    def finish_project(self):
        findings = []
        for name in sorted(self._hot_classes):
            path, line, has_slots = self._hot_classes[name]
            if has_slots or name not in self._loop_instantiated:
                continue
            use_path, use_line = self._loop_instantiated[name]
            findings.append(self.emit(
                path, line,
                f"hot-path class {name} is instantiated inside a loop "
                f"({use_path}:{use_line}) but has no __slots__; add "
                f"__slots__ (or @dataclass(slots=True)) to keep the "
                f"allocation path flat"))
        return findings


@rule
class BlockingCallRule(Rule):
    """Blocking host I/O inside the simulated layers.

    Simulator callbacks run back-to-back in one thread of virtual time;
    a ``time.sleep``, socket call, subprocess or file read stalls the
    whole cluster for real wall-clock time and couples the run to host
    state.  The simulated layers (``sim``, ``net``, ``protocols``,
    ``smr``, ``scenarios``, ``faults``, ``workloads``, ``zk``) must not
    touch the host; real I/O belongs to the harness and CLI.
    """

    id = "S004"
    title = "blocking host I/O in a simulated layer"

    def visit_Call(self, node: ast.Call) -> None:
        if path_contains(self._module, *_SIM_LAYERS):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in _BLOCKING_PAIRS):
                self.report(node, f"{func.value.id}.{func.attr}() blocks "
                                  "the virtual-time event loop; simulated "
                                  "layers must not do host I/O")
            elif (isinstance(func, ast.Name)
                    and func.id in _BLOCKING_NAMES):
                self.report(node, f"{func.id}() blocks the virtual-time "
                                  "event loop; simulated layers must not "
                                  "do host I/O")
        self.generic_visit(node)
