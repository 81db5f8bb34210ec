"""Every module under ``src/repro`` is reached by something that runs.

The entry points are the CLI (``repro.cli``, ``repro.__main__``), the
package itself, and every ``repro`` module that ``examples/*.py`` or
``benchmarks/**/*.py`` imports.  From them this follows the static
imports, module level or inside a function (all of them absolute), and
asserts that no module under ``src/repro`` is left over.  A module that
only its own unit tests import is code no experiment runs: delete it,
or wire it into one.

The one exception is ``harness/seed_reference.py``: the seed's event
loop, network and encoder kept verbatim as the oracle that the tests
compare the current implementations against.  Tests import it on
purpose, and nothing else may.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Reached only from tests, by design (see the module docstring).
TEST_ORACLES = {"repro.harness.seed_reference"}


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def with_parents(name):
    """``a.b.c`` imports the packages ``a`` and ``a.b`` on the way."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def imported_modules(path):
    """The ``repro`` modules one file imports, statically;
    ``from package import name`` counts ``package.name`` when that is a
    module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: relative import"
            targets = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        for target in targets:
            if target in MODULES:
                found |= with_parents(target)
    return found


def entry_points():
    roots = {"repro", "repro.cli", "repro.__main__"}
    scripts = sorted((ROOT / "examples").glob("*.py")) \
        + sorted((ROOT / "benchmarks").rglob("*.py"))
    for path in scripts:
        roots |= imported_modules(path)
    return roots


def reached():
    seen, frontier = set(), entry_points()
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier |= imported_modules(MODULES[name]) - seen
    return seen


def test_entry_points_are_found():
    roots = entry_points()
    # The e2e ledger, the figure benchmarks and the examples each reach
    # in: a scan that found none of them would pass vacuously.
    assert {"repro.cli", "repro.harness.runner", "repro.zk.service",
            "repro.faults.liveness"} <= roots


def test_every_module_is_reached_from_an_entry_point():
    unreached = set(MODULES) - reached() - TEST_ORACLES
    assert not unreached, (
        f"modules no CLI command, example or benchmark imports: "
        f"{sorted(unreached)}")


def test_the_oracle_is_only_for_tests():
    assert not TEST_ORACLES & reached()
