"""Shared helpers for the linter tests: fixture trees and line lookup.

Deliberate violations live in *generated* files under ``tmp_path`` --
never as committed fixture files -- so the real-tree lint run (which
covers ``tests/``) cannot fire on the test suite itself.  Violating
code inside the string literals below is invisible to the AST pass.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest


def write_tree(root: Path, files: dict) -> Path:
    """Materialise ``{relpath: source}`` under ``root`` (dedented)."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def line_of(source: str, needle: str) -> int:
    """1-based line of the first line containing ``needle``."""
    for i, text in enumerate(textwrap.dedent(source).splitlines(), 1):
        if needle in text:
            return i
    raise AssertionError(f"{needle!r} not in fixture")


@pytest.fixture
def lint_tree(tmp_path):
    """``lint_tree(files) -> LintReport`` over a generated fixture tree."""
    from repro.analysis.engine import run_lint

    def run(files: dict, **kwargs):
        write_tree(tmp_path, files)
        return run_lint([str(tmp_path)], **kwargs)

    return run


def found(report, rule: str):
    """The ``(path-suffix, line)`` pairs of one rule's findings."""
    return [(f.file.rsplit("/", 2)[-2] + "/" + f.file.rsplit("/", 1)[-1]
             if "/" in f.file else f.file, f.line)
            for f in report.findings if f.rule == rule]


def rules_fired(report):
    return sorted({f.rule for f in report.findings})
