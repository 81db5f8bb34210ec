"""Rule framework: visitor-based rules, the registry, and path scoping.

A rule is an :class:`ast.NodeVisitor` subclass with a class-level ``id``
and a docstring that states the invariant it enforces (the
docstring is the rule catalog entry printed by ``repro lint
--list-rules`` and quoted in ``docs/static-analysis.md``).  File-local
rules override visitor methods and call :meth:`Rule.report`;
cross-file rules (the A-series registration check, the S-series hot-class
scan, the P-series reachability check) additionally collect state per
module and emit their findings from :meth:`Rule.finish_project` once
every module has been seen.

Rules are registered with the :func:`rule` decorator; the engine
instantiates a fresh rule object per run, so rules may keep mutable
project state on ``self`` without bleeding between runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from types import ModuleType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.findings import Finding


@dataclass
class ModuleInfo:
    """One parsed source file handed to every rule.

    ``path`` is the path as reported in findings (normalised to POSIX
    separators, relative to the lint invocation's working directory);
    ``parts`` is its component tuple for suffix scoping.
    """

    path: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.path.split("/"))


def path_endswith(module: ModuleInfo, *suffixes: str) -> bool:
    """Does the module path end with any of the ``a/b.py`` suffixes?

    Matching is on whole path components, so ``sim/core.py`` matches
    ``src/repro/sim/core.py`` but not ``src/repro/sim/score.py``.
    """
    parts = module.parts
    for suffix in suffixes:
        want = tuple(suffix.split("/"))
        if len(parts) >= len(want) and parts[-len(want):] == want:
            return True
    return False


def path_contains(module: ModuleInfo, *fragments: str) -> bool:
    """Does the module path contain any ``a/b`` component run?

    ``repro/sim`` matches ``src/repro/sim/core.py`` anywhere in the
    path, again on whole components only.
    """
    parts = module.parts
    for fragment in fragments:
        want = tuple(fragment.split("/"))
        for i in range(len(parts) - len(want) + 1):
            if parts[i:i + len(want)] == want:
                return True
    return False


class Rule(ast.NodeVisitor):
    """Base class for one lint rule (see the module docstring)."""

    #: Stable identifier, ``<FAMILY><NNN>`` (e.g. ``D001``); suppression
    #: comments refer to findings by this id.
    id: str = ""
    #: One-line summary for ``--list-rules`` and the docs catalog.
    title: str = ""

    def __init__(self) -> None:
        self._findings: List[Finding] = []
        self._module: Optional[ModuleInfo] = None

    # -- engine entry points ------------------------------------------------

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        """Run this rule over one parsed module; returns its findings."""
        self._module = module
        self._findings = []
        self.visit(module.tree)
        found, self._findings = self._findings, []
        return found

    def finish_project(self) -> List[Finding]:
        """Cross-file findings, emitted after every module was checked."""
        return []

    # -- helpers for subclasses ---------------------------------------------

    def report(self, node: ast.AST, message: str,
               path: Optional[str] = None,
               line: Optional[int] = None) -> None:
        """Record a finding at ``node`` (or an explicit path/line)."""
        assert self._module is not None or path is not None
        self._findings.append(Finding(
            file=path if path is not None else self._module.path,
            line=line if line is not None else node.lineno,
            rule=self.id,
            message=message,
        ))

    def emit(self, path: str, line: int, message: str) -> Finding:
        """Build a finding detached from the current module (for
        :meth:`finish_project`)."""
        return Finding(file=path, line=line, rule=self.id, message=message)


#: id -> rule class, in registration order (which fixes report ordering
#: for same-line findings).
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add ``cls`` to the registry (ids are unique)."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    existing = RULE_REGISTRY.get(cls.id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"rule id {cls.id} already registered by {existing.__name__}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def _rule_modules() -> Tuple[ModuleType, ...]:
    """The modules whose ``@rule`` classes fill the registry, imported."""
    # Imported here, not at the top: they import this module.
    from repro.analysis import (
        rules_authentication,
        rules_determinism,
        rules_simulator,
        rules_structure,
    )

    return (rules_authentication, rules_determinism, rules_simulator,
            rules_structure)


def all_rule_classes() -> Dict[str, Type[Rule]]:
    """The full registry.  It imports the rule modules first, so
    ``import repro.analysis.base`` alone cannot observe a half-filled
    registry."""
    _rule_modules()
    return dict(RULE_REGISTRY)


def make_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh rule instances, optionally restricted to the ids in ``only``.

    Raises ``ValueError`` on an unknown id, naming the known ones.
    """
    registry = all_rule_classes()
    if only:
        unknown = sorted(set(only) - set(registry))
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry))}")
        wanted = set(only)
        return [cls() for rid, cls in registry.items() if rid in wanted]
    return [cls() for cls in registry.values()]


def iter_loop_depth(tree: ast.AST) -> Iterable[Tuple[ast.AST, int]]:
    """Yield ``(node, loop_depth)`` for every node, where ``loop_depth``
    counts enclosing per-iteration positions: ``for``/``while`` bodies
    and comprehension element expressions.  A ``for`` statement's
    iterable is evaluated once and stays at the enclosing depth."""
    def walk(node: ast.AST, depth: int) -> Iterable[Tuple[ast.AST, int]]:
        yield node, depth
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from walk(node.iter, depth)
            yield from walk(node.target, depth + 1)
            for stmt in node.body + node.orelse:
                yield from walk(stmt, depth + 1)
        elif isinstance(node, ast.While):
            yield from walk(node.test, depth + 1)
            for stmt in node.body + node.orelse:
                yield from walk(stmt, depth + 1)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for child in ast.iter_child_nodes(node):
                yield from walk(child, depth + 1)
        else:
            for child in ast.iter_child_nodes(node):
                yield from walk(child, depth)

    return walk(tree, 0)
