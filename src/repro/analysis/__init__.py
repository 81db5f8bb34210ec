"""Static analysis: the ``repro lint`` determinism, safety and structure
linter.

The runtime already enforces this repository's core invariants late --
``guard_global_rng`` raises on a module-level RNG draw mid-cell, the
authenticator registry refuses unregistered wire messages at send time
-- but a runtime check only fires on the path that happens to execute.
This package moves those checks left: a rule-based AST linter that
walks ``src``/``tests``/``benchmarks``/``examples`` before a matrix run
ever starts.

Rule families (full catalog with rationale: ``docs/static-analysis.md``):

* **D-series, determinism** -- module-level RNG draws and unseedable
  entropy (D001), wall-clock reads (D002), hash-ordered set iteration
  (D003).
* **A-series, authentication** -- wire messages sent without a static
  authenticator binding (A001), frozen messages mutated (A002).
* **S-series, simulator hygiene** -- mutable default args (S001),
  ``heapq`` outside ``sim/core.py`` (S002), hot-loop classes without
  ``__slots__`` (S003), blocking host I/O in simulated layers (S004).
* **P-series, one path** -- the rows of one table
  (:mod:`repro.analysis.rules_structure`): one caller per single door
  (P001), line budgets (P002), options read in constructors (P003), and
  every module and definition reached from an entry point (P004).

Findings carry ``file:line``, a rule id and a message; every finding
fails the run, and one occurrence is silenced inline with ``# repro:
lint-ok[RULE-ID]`` next to a comment saying why.  Entry point:
:func:`repro.analysis.engine.run_lint` (the ``repro lint`` CLI wraps
it).  Like every package here, this one re-exports nothing.
"""
