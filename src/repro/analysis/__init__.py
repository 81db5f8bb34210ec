"""Static analysis: the ``repro lint`` determinism & safety linter.

The runtime already enforces this repository's core invariants late --
``guard_global_rng`` raises on a module-level RNG draw mid-cell, the
authenticator registry refuses unregistered wire messages at send time
-- but a runtime check only fires on the path that happens to execute.
This package moves those checks left: a rule-based AST linter that
walks ``src``/``tests``/``benchmarks`` before a matrix run ever starts.

Rule families (full catalog with rationale: ``docs/static-analysis.md``):

* **D-series, determinism** -- module-level RNG draws and unseedable
  entropy (D001), wall-clock reads (D002), hash-ordered set iteration
  (D003).
* **A-series, authentication** -- wire messages sent without a static
  authenticator binding (A001).
* **S-series, simulator hygiene** -- mutable default args (S001),
  ``heapq`` outside ``sim/core.py`` (S002), hot-loop classes without
  ``__slots__`` (S003), blocking host I/O in simulated layers (S004).

Findings carry ``file:line``, a rule id and a message; one occurrence is
silenced inline with ``# repro: lint-ok[RULE-ID]``, inherited debt lives
in the committed baseline (``benchmarks/lint_baseline.json``) where
stale entries fail the run.  Entry point: :func:`run_lint` (the ``repro
lint`` CLI wraps it).
"""

from repro.analysis.base import (
    ModuleInfo,
    Rule,
    all_rule_classes,
    make_rules,
    rule,
)
from repro.analysis.baseline import (
    load_baseline,
    split_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    LintReport,
    format_report,
    iter_python_files,
    run_lint,
)
from repro.analysis.findings import Finding, Severity

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "Rule",
    "Severity",
    "all_rule_classes",
    "format_report",
    "iter_python_files",
    "load_baseline",
    "make_rules",
    "rule",
    "run_lint",
    "split_baseline",
    "write_baseline",
]
