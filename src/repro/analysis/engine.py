"""The lint driver: collect files, parse once, run rules, merge.

:func:`run_lint` is the single entry point used by the CLI and the
tests.  The pipeline per run:

1. walk the given paths for ``*.py`` files (sorted; ``__pycache__`` and
   hidden directories skipped), parse each into one shared AST;
2. run every selected rule over every module (file-local findings), then
   give each rule its cross-file :meth:`finish_project` pass;
3. drop findings silenced by inline ``# repro: lint-ok[ID]`` markers;
   every other finding fails the run.

Everything is deterministic: files are visited in sorted order and
findings are reported sorted by ``(file, line, rule)``, so two runs over
the same tree produce byte-identical reports.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.base import ModuleInfo, make_rules
from repro.analysis.findings import Finding
from repro.analysis.suppressions import is_suppressed, suppressed_lines

#: Raised whenever the report's keys change.
REPORT_VERSION = 2

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis",
                        "node_modules"})


@dataclass
class LintReport:
    """The outcome of one lint run."""

    #: Findings that fail the run (not suppressed).
    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by inline ``lint-ok`` markers.
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Does the run pass (no findings)?"""
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": self.rules_run,
            "findings": [asdict(f) for f in self.findings],
            "suppressed": [asdict(f) for f in self.suppressed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``*.py`` under ``paths`` (files accepted as-is), sorted.

    Raises ``FileNotFoundError`` for a path that does not exist -- a
    typoed lint target must fail loudly, not pass vacuously.
    """
    out = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in _SKIP_DIRS and not d.startswith("."))
                for name in files:
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
    return sorted(set(os.path.normpath(p).replace(os.sep, "/")
                      for p in out))


def parse_modules(
        files: Iterable[str]) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Parse each file once; syntax errors become E000 findings
    (byte-compilation catches them too, but the linter must not crash
    mid-run on one bad file)."""
    modules, errors = [], []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            errors.append(Finding(
                file=path, line=exc.lineno or 1, rule="E000",
                message=f"syntax error: {exc.msg}"))
            continue
        modules.append(ModuleInfo(path=path, tree=tree,
                                  lines=source.splitlines()))
    return modules, errors


def run_lint(paths: Sequence[str],
             only: Optional[Sequence[str]] = None) -> LintReport:
    """Lint ``paths`` and return the merged :class:`LintReport`.

    ``only`` restricts the run to the named rule ids (unknown ids raise
    ``ValueError``).
    """
    rules = make_rules(only=only)
    files = iter_python_files(paths)
    modules, raw = parse_modules(files)

    for module in modules:
        for rule in rules:
            raw.extend(rule.check_module(module))
    for rule in rules:
        raw.extend(rule.finish_project())

    # Inline suppressions are resolved against the module the finding
    # points into (cross-file rules report into modules other than the
    # one being visited when the finding surfaced).
    markers = {m.path: suppressed_lines(m.lines) for m in modules}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        if is_suppressed(finding, markers.get(finding.file, {})):
            suppressed.append(finding)
        else:
            kept.append(finding)

    order = attrgetter("file", "line", "rule")
    return LintReport(
        findings=sorted(kept, key=order),
        suppressed=sorted(suppressed, key=order),
        files_checked=len(modules),
        rules_run=sorted(r.id for r in rules),
    )


def format_report(report: LintReport, verbose: bool = False) -> str:
    """Human-readable report text (the CLI's default output)."""
    lines = []
    for finding in report.findings:
        lines.append(finding.format())
    if verbose:
        for finding in report.suppressed:
            lines.append(f"{finding.format()} (suppressed by lint-ok)")
    summary = (
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed "
        f"across {report.files_checked} file(s), "
        f"{len(report.rules_run)} rule(s)")
    lines.append(("FAIL: " if not report.ok else "lint ok: ") + summary)
    return "\n".join(lines)
