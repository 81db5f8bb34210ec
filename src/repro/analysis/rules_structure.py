"""P-series: the one-path rules, as rows of one table.

XPaxos's guarantees rest on a few single doors: one signature check over
what a message's own fields hash to (paper Section 4.2), one execute ->
reply core, one way to run a cell.  Each door is a row below; each row
kind is one rule (so ``# repro: lint-ok[P00N]`` stays narrow) checking
its rows over the modules the engine parsed once.  Scopes and sites are
path fragments matched on whole components, so a fixture tree laid out
as ``src/repro/...`` is held to the real rows.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import ModuleInfo, Rule, path_contains, rule


@dataclass(frozen=True)
class OneCaller:
    """P001: calls to ``callee`` (a glob over the called name's last
    dotted components) under ``scope`` come only from ``sites``,
    ``"<module path suffix>:<function>"``, one call per entry."""

    callee: str
    sites: Tuple[str, ...]
    scope: str = "src/repro"


@dataclass(frozen=True)
class LineBudget:
    """P002: no file under ``scope``, or its ``function`` (a top-level
    name or ``Class.method``), passes ``limit`` lines."""

    scope: str
    limit: int
    function: Optional[str] = None


@dataclass(frozen=True)
class ReadInInit:
    """P003: ``attribute`` (a glob) is read under ``scope`` only inside
    ``__init__``."""

    attribute: str
    scope: str


@dataclass(frozen=True)
class Reachable:
    """P004: all of ``package`` is reached from ``entry_modules`` and the
    files under ``entry_dirs``; ``allow`` holds ``module`` or
    ``module:qualname`` globs for what only tests use."""

    package: str
    entry_modules: Tuple[str, ...]
    entry_dirs: Tuple[str, ...]
    allow: Tuple[str, ...]


RUNNER = "repro/harness/runner.py"
XPAXOS = "repro/protocols/xpaxos"

ONE_CALLERS = (
    # One run path (docs/execution.md): a second builder drifts from the
    # first.
    OneCaller("build_cluster", (f"{RUNNER}:build",)),
    OneCaller("make_driver", (f"{RUNNER}:run_cell",)),
    OneCaller("FaultInjector", (f"{RUNNER}:run_cell",)),
    # One signature check (docs/authenticators.md, "Signed payloads"): a
    # hand-rolled check decides for itself whether the signer is tied to
    # the sender the message names.  What a signature covers is a Signed
    # class's covers, never a *_payload helper.
    OneCaller("keystore.verify*", (f"{XPAXOS}/signed.py:verify_signed",
                                   f"{XPAXOS}/replica.py:_verify_request",
                                   f"{XPAXOS}/checkpoint.py:proof_valid"),
              XPAXOS),
    OneCaller("*_payload", (), ""),
    # One execute -> reply core (docs/execution.md): sent and cached
    # replies come out of one make_reply.
    OneCaller("app.execute_batch", ("repro/smr/runtime.py:execute_slot",)),
    OneCaller("app.restore", ("repro/smr/runtime.py:restore_to",)),
    OneCaller("GenericReply", ("repro/protocols/base.py:make_reply",)),
    OneCaller("ReplyMsg", (f"{XPAXOS}/replica.py:make_reply",)),
    # One way onto the wire: the runtime's send verbs, which size each
    # payload by its class's wire_bytes, so no protocol names a size.
    OneCaller("network.send", tuple(
        f"repro/smr/runtime.py:{verb}"
        for verb in ("send_authenticated", "send", "multicast_authenticated",
                     "_fanout_with_self", "_fanout_with_self"))),
    # A derived value is stored only by the builder that computed it from
    # the same fields a line earlier (crypto.primitives.wire).
    OneCaller("_set_*", ("repro/smr/messages.py:signed",) * 3
              + (f"{XPAXOS}/signed.py:signed",)),
    OneCaller("__set__", ()),
)

LINE_BUDGETS = (
    # XPaxosReplica stays split along the paper's algorithms
    # (docs/execution.md, "Where each algorithm lives"): no module
    # outgrows a screenful of algorithms, and the core's constructor
    # lists its own state.
    LineBudget(f"src/{XPAXOS}", 450),
    LineBudget(f"src/{XPAXOS}/replica.py", 30, "XPaxosReplica.__init__"),
)

READS_IN_INIT = (
    # An XPaxos option is decided where a component is built.
    ReadInInit("use_*", f"src/{XPAXOS}"),
)

REACHABLE = Reachable(
    package="repro",
    entry_modules=("repro", "repro.cli", "repro.__main__"),
    entry_dirs=("examples", "benchmarks"),
    allow=(
        # The seed's event loop, network and encoder, kept verbatim as
        # the oracle the tests compare the current ones against.
        "repro.harness.seed_reference",
        # Rules register by @rule and run by id; NodeVisitor calls
        # visit_<node class>.
        "repro.analysis.rules_*:*Rule",
        "repro.analysis.rules_*:*Rule.visit_*",
        # The seed-oracle tests step the simulator to compare it with
        # the seed's event loop mid-run.
        "repro.sim.core:Simulator.step",
        # Test probes: when an armed timer fires, and one cell of a
        # matrix run looked up by (protocol, scenario).
        "repro.sim.process:Timer.deadline",
        "repro.harness.matrix:MatrixResult.cell",
        # Test apparatus: a forger's key for the forgery tests, the
        # checkers' raising forms, and two adversaries the fault tests
        # pit against the view change.
        "repro.crypto.primitives:KeyStore.forge_attempt",
        "repro.faults.checker:SafetyChecker.assert_safe",
        "repro.faults.liveness:LivenessChecker.assert_live",
        "repro.faults.adversary:StaleViewAdversary",
        "repro.faults.adversary:SilentAdversary",
    ),
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _in_scope(module: ModuleInfo, scope: str) -> bool:
    return not scope or path_contains(module, scope)


def _with_function(
        tree: ast.AST) -> Iterator[Tuple[ast.AST, Optional[str]]]:
    """``(node, innermost enclosing function name)`` for every node."""
    stack: List[Tuple[ast.AST, Optional[str]]] = [(tree, None)]
    while stack:
        node, function = stack.pop()
        yield node, function
        if isinstance(node, _FUNCTIONS):
            function = node.name
        stack.extend((child, function)
                     for child in ast.iter_child_nodes(node))


def _dotted(func: ast.AST) -> str:
    """``a.b.c(...)`` -> ``"a.b.c"``; a non-name root is left out."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return ".".join(parts[::-1])


@rule
class OneCallerRule(Rule):
    """A single door has one caller.

    Under each :data:`ONE_CALLERS` row's scope, a call to its callee
    anywhere but its sites, or more calls in a site than it is listed, is
    a finding;
    so is a site that no longer makes the call (reported at line 1), as
    a renamed door would leave the row checking nothing.
    """

    id = "P001"
    title = "a single door called from outside its one path"

    def check_module(self, module: ModuleInfo):
        self._module = module
        self._findings = []
        rows = [row for row in ONE_CALLERS if _in_scope(module, row.scope)]
        if not rows:
            return []
        calls, defined = [], set()
        for node, function in _with_function(module.tree):
            if isinstance(node, ast.Call):
                calls.append((node.lineno, function, _dotted(node.func)))
            elif isinstance(node, _FUNCTIONS):
                defined.add(node.name)
        calls.sort(key=lambda call: call[0])
        for row in rows:
            sites = Counter(site.rpartition(":")[2] for site in row.sites
                            if path_contains(module, site.rpartition(":")[0]))
            allowed = " or ".join(sorted(set(row.sites)))
            seen: Counter = Counter()
            for line, function, name in calls:
                tail = ".".join(name.split(".")[-row.callee.count(".") - 1:])
                if not fnmatchcase(tail, row.callee):
                    continue
                if function not in sites:
                    self.report(None, f"{name}() called outside its one "
                                      f"path: {allowed or 'nowhere'}",
                                line=line)
                elif seen[function] == sites[function]:
                    self.report(None, f"one {name}() call too many in "
                                      f"{function}", line=line)
                seen[function] += 1
            for function in sorted(set(sites) & defined - set(seen)):
                self.report(None, f"{function} no longer calls "
                                  f"{row.callee}; update its row", line=1)
        return self._findings


@rule
class LineBudgetRule(Rule):
    """A file or constructor stays within its line budget.

    Each :data:`LINE_BUDGETS` row caps every file under a scope
    (reported at its first line past the cap) or one definition in it
    (reported at its ``def`` line).
    """

    id = "P002"
    title = "a file or function past its line budget"

    def check_module(self, module: ModuleInfo):
        self._module = module
        self._findings = []
        for row in LINE_BUDGETS:
            if not _in_scope(module, row.scope):
                continue
            if row.function is None:
                if len(module.lines) > row.limit:
                    self.report(None, f"{len(module.lines)} lines, past "
                                      f"the {row.limit}-line budget of "
                                      f"{row.scope}; move something out",
                                line=row.limit + 1)
                continue
            node: Optional[ast.AST] = module.tree
            for name in row.function.split("."):
                node = next((n for n in getattr(node, "body", ())
                             if getattr(n, "name", None) == name), None)
            length = node.end_lineno - node.lineno + 1 if node else 0
            if length > row.limit:
                self.report(node, f"{row.function} is {length} lines, "
                                  f"past its {row.limit}-line budget")
        return self._findings


@rule
class ReadInInitRule(Rule):
    """An option is read where a component is built: under each
    :data:`READS_IN_INIT` row's scope, a read of a matching attribute
    anywhere but inside ``__init__`` is a finding."""

    id = "P003"
    title = "an option read outside a constructor"

    def check_module(self, module: ModuleInfo):
        self._module = module
        self._findings = []
        rows = [row for row in READS_IN_INIT if _in_scope(module, row.scope)]
        if not rows:
            return []
        for node, function in _with_function(module.tree):
            if isinstance(node, ast.Attribute) and function != "__init__" \
                    and any(fnmatchcase(node.attr, row.attribute)
                            for row in rows):
                self.report(node, f"option {node.attr} read in "
                                  f"{function or 'module code'}; decide "
                                  f"it in the constructor")
        return self._findings


# -- P004 ----------------------------------------------------------------
@dataclass(eq=False)
class _Unit:
    """A stretch of code that runs as one: a module's top level, a
    top-level def or class (without its methods), a method, or an entry
    script.  It is reached once its parent is and something reached
    names it -- a top-level def by a name, an attribute or an identifier
    string; a method by an attribute, a string or a bare name in its own
    class body (``visit_ListComp = _visit_comp``), since a bare name
    anywhere else is a local or a global, never a method; a dunder needs
    no name -- and then what it names and imports is."""

    qualname: str = ""
    line: int = 1
    parent: Optional["_Unit"] = None
    children: List["_Unit"] = field(default_factory=list)
    names: Set[str] = field(default_factory=set)
    #: What it names as an attribute or an identifier string.
    attrs: Set[str] = field(default_factory=set)
    imports: Set[str] = field(default_factory=set)
    reached: bool = False

    def __post_init__(self) -> None:
        self.name = self.qualname.rpartition(".")[2]
        self.method = "." in self.qualname
        if self.parent is not None:
            self.parent.children.append(self)


def _package_name(module: ModuleInfo, package: str) -> Optional[str]:
    """``src/<package>/a/b.py`` -> ``<package>.a.b``; None outside."""
    _, inside, rest = f"/{module.path[:-3]}".rpartition(f"/src/{package}/")
    name = f"{package}.{rest.replace('/', '.')}".removesuffix(".__init__")
    return name if inside else None


def _harvest(unit: _Unit, nodes: List[ast.AST], modules: Set[str]) -> _Unit:
    """Add what ``nodes`` name and (absolutely) import to ``unit``."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                unit.names.add(node.id)
            elif isinstance(node, ast.Attribute):
                unit.attrs.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and node.value.isidentifier():
                # derived_values, signature_field, __all__ ...
                unit.attrs.add(node.value)
            elif isinstance(node, ast.Import):
                unit.imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                unit.names.update(alias.name for alias in node.names)
                unit.imports.add(base)
                unit.imports.update(f"{base}.{alias.name}"
                                    for alias in node.names)
    # Importing a.b.c runs the packages a and a.b on the way.
    unit.imports = {".".join(parts[:i]) for parts in (
        target.split(".") for target in unit.imports)
        for i in range(1, len(parts) + 1)} & modules
    unit.names |= unit.attrs
    return unit


def _module_unit(info: ModuleInfo, modules: Set[str],
                 exports: bool) -> _Unit:
    """The top-level unit of a module, its defs and classes as children
    and their methods as grandchildren.  ``__all__`` counts only where
    it is an entry point's (``exports``)."""
    top = _Unit()
    for stmt in info.tree.body:
        if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
            unit = _Unit(stmt.name, stmt.lineno, top)
            methods = [s for s in stmt.body if isinstance(
                stmt, ast.ClassDef) and isinstance(s, _FUNCTIONS)]
            _harvest(unit, [s for s in ast.iter_child_nodes(stmt)
                            if s not in methods], modules)
            for method in methods:
                _harvest(_Unit(f"{stmt.name}.{method.name}",
                               method.lineno, unit),
                         [method], modules)
        elif exports or not any(isinstance(t, ast.Name)
                                and t.id == "__all__"
                                for t in getattr(stmt, "targets", ())):
            _harvest(top, [stmt], modules)
    return top


@rule
class ReachableRule(Rule):
    """Every module and definition is reached by something that runs.

    From :data:`REACHABLE`'s entry points this follows what reached code
    imports and names (see :class:`_Unit`).  A module no reached code
    imports, or a top-level def, class or method it never names, is
    code only its unit tests run: delete it or wire it into an
    experiment.  Names match by spelling, so a method sharing a live
    attribute's name passes.  A run without every entry point (``repro
    lint src/repro/sim``) says nothing.
    """

    id = "P004"
    title = "a module or definition no entry point reaches"

    def __init__(self) -> None:
        super().__init__()
        self._modules: Dict[str, ModuleInfo] = {}
        self._scripts: List[ModuleInfo] = []

    def check_module(self, module: ModuleInfo):
        name = _package_name(module, REACHABLE.package)
        if name is not None:
            self._modules[name] = module
        elif any(d in module.parts[:-1] for d in REACHABLE.entry_dirs):
            self._scripts.append(module)
        return []

    def finish_project(self):
        row = REACHABLE
        if not (set(row.entry_modules) <= set(self._modules) and all(
                any(d in s.parts[:-1] for s in self._scripts)
                for d in row.entry_dirs)):
            return []
        modules = set(self._modules)
        tops = {name: _module_unit(info, modules, name in row.entry_modules)
                for name, info in sorted(self._modules.items())}
        units = {name: [top, *top.children,
                        *(m for unit in top.children for m in unit.children)]
                 for name, top in tops.items()}
        by_name: Dict[str, List[_Unit]] = {}
        for each in units.values():
            for unit in each[1:]:
                by_name.setdefault(unit.name, []).append(unit)
        # Named at all (reaches top-level defs), and named as an
        # attribute or a string (reaches methods too).
        named: Set[str] = set()
        used: Set[str] = set()
        pending: List[_Unit] = []

        def walk(roots: List[_Unit]) -> None:
            pending.extend(unit for unit in roots if not unit.reached)
            for unit in pending:
                unit.reached = True
            while pending:
                unit = pending.pop()
                fresh = [child for child in unit.children
                         if child.name in (used if child.method else named)
                         or child.name in unit.names
                         or child.name[:2] == child.name[-2:] == "__"]
                fresh += [tops[module] for module in sorted(unit.imports)]
                for name in sorted(unit.names - named):
                    named.add(name)
                    fresh += [candidate for candidate in by_name.get(name, ())
                              if not candidate.method
                              and candidate.parent.reached]
                for name in sorted(unit.attrs - used):
                    used.add(name)
                    fresh += [candidate for candidate in by_name.get(name, ())
                              if candidate.method
                              and candidate.parent.reached]
                for each in fresh:
                    if not each.reached:
                        each.reached = True
                        pending.append(each)

        def allowed(module: str, qualname: str) -> bool:
            # A module entry covers everything the module defines.
            return any(fnmatchcase(module, pattern) if ":" not in pattern
                       else bool(qualname) and fnmatchcase(
                           f"{module}:{qualname}", pattern)
                       for pattern in row.allow)

        walk([tops[name] for name in row.entry_modules]
             + [_harvest(_Unit(), [info.tree], modules)
                for info in self._scripts])
        kept = [(name, unit) for name, each in units.items()
                for unit in each if allowed(name, unit.qualname)]
        # What the allow-list names is for tests only: the entry points
        # must not reach it on their own (reported once per module).
        stale = {name: unit for name, unit in reversed(kept) if unit.reached}
        findings = [self.emit(self._modules[name].path, unit.line,
                              f"{unit.qualname or name} is reached from the "
                              f"entry points; drop its allow-list entry")
                    for name, unit in stale.items()]
        walk([unit for _, unit in kept])
        # A method of an unreached class is reported with its class.
        return findings + [
            self.emit(self._modules[name].path, unit.line,
                      f"{unit.qualname} is named by no code reachable "
                      f"from the entry points" if unit.qualname else
                      f"module {name} is imported by no code reachable "
                      f"from the entry points")
            for name, each in units.items() for unit in each
            if not unit.reached
            and (unit.parent is None or unit.parent.reached)]
