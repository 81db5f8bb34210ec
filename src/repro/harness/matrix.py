"""Scenario conformance matrix: run ``(protocol x scenario)`` cells.

:func:`scenario_cell` turns a scenario into a
:class:`~repro.harness.runner.Cell` -- a fresh deterministic cluster on a
uniform LAN with the scenario's fault schedule, adversaries and workload
-- and :func:`grade` grades the run against the scenario's invariants:

* **safety** -- total order among benign replicas
  (:class:`~repro.faults.checker.SafetyChecker`), admissible to violate
  only when the scenario intentionally enters anarchy;
* **liveness** -- commit progress within the scenario's bound whenever
  the system is healthy (:class:`~repro.faults.liveness.LivenessChecker`);
* **expectations** -- anarchy observed for anarchy scenarios, adversaries
  convicted for detection scenarios, a floor on total commits.

Cells are fully deterministic: repeating a cell with the same seed
produces a byte-identical JSON record.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.common.config import (
    ClusterConfig,
    ProtocolName,
    WorkloadConfig,
    sites_for,
)
from repro.crypto.costs import CostModel
from repro.harness.parallel import guard_global_rng, parallel_map
from repro.harness.runner import (
    Cell,
    ExperimentResult,
    ExperimentRunner,
    run_cells,
)
from repro.net.latency import LatencyModel
from repro.scenarios.library import builtin_scenarios
from repro.scenarios.scenario import Scenario

#: Statuses a cell can end in.
PASS = "pass"
FAIL = "fail"
EXPECTED_VIOLATION = "expected-violation"
SKIPPED = "skipped"
#: The cell could not be built, or its worker raised or died before
#: grading finished.  Only that cell is lost; the rest of the matrix is
#: unaffected.
ERROR = "error"

#: Fast timeouts for conformance cells (scenarios are phrased in a few
#: virtual seconds, not paper-scale ones).  The test suite's FAST_TIMEOUTS
#: is defined as a copy of this dict, so cells and unit tests always run
#: under identical timeouts.
CELL_TIMEOUTS = dict(
    delta_ms=50.0,
    request_retransmit_ms=200.0,
    view_change_timeout_ms=400.0,
    batch_timeout_ms=2.0,
)

@dataclass
class CellResult:
    """Outcome of one ``(protocol, scenario)`` cell."""

    protocol: str
    scenario: str
    status: str
    committed: int = 0
    anarchy_observed: bool = False
    safety_violations: int = 0
    liveness_violations: int = 0
    detection_ok: bool = True
    convicted: List[int] = field(default_factory=list)
    seed: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Did the cell satisfy its invariants (or stay out of scope)?"""
        return self.status in (PASS, EXPECTED_VIOLATION, SKIPPED)


@dataclass
class MatrixResult:
    """All cells of one matrix run."""

    seed: int
    cells: List[CellResult] = field(default_factory=list)

    def cell(self, protocol: ProtocolName, scenario: str) -> CellResult:
        """Look one cell up."""
        for cell in self.cells:
            if cell.protocol == protocol.value and cell.scenario == scenario:
                return cell
        raise KeyError(f"no cell ({protocol.value}, {scenario})")

    @property
    def failures(self) -> List[CellResult]:
        """Cells that did not satisfy their invariants."""
        return [c for c in self.cells if not c.ok]

    def to_json(self) -> str:
        """Stable JSON rendering (byte-identical across equal-seed runs)."""
        payload = {
            "seed": self.seed,
            "cells": [asdict(c) for c in sorted(
                self.cells, key=lambda c: (c.scenario, c.protocol))],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def format_grid(self) -> str:
        """Plain-text scenario x protocol grid (only protocols run)."""
        present = {c.protocol for c in self.cells}
        protocols = [p.value for p in ProtocolName if p.value in present]
        scenarios: List[str] = []
        for cell in self.cells:
            if cell.scenario not in scenarios:
                scenarios.append(cell.scenario)
        by_key: Dict[tuple, CellResult] = {
            (c.scenario, c.protocol): c for c in self.cells}
        symbol = {PASS: "ok", FAIL: "FAIL",
                  EXPECTED_VIOLATION: "anarchy", SKIPPED: "-",
                  ERROR: "ERR"}
        width = max(len(s) for s in scenarios) if scenarios else 8
        lines = [" " * width + "  " + "".join(f"{p:>9}" for p in protocols)]
        for scenario in scenarios:
            row = f"{scenario:<{width}}  "
            for protocol in protocols:
                cell = by_key.get((scenario, protocol))
                mark = symbol[cell.status] if cell else "?"
                row += f"{mark:>9}"
            lines.append(row)
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        summary = ", ".join(f"{counts[s]} {s}" for s in
                            (PASS, EXPECTED_VIOLATION, FAIL, ERROR, SKIPPED)
                            if s in counts)
        lines.append(summary)
        return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def _lan(sites: FrozenSet[str], one_way_ms: float) -> ExperimentRunner:
    """The cells' deployment: ``one_way_ms`` between any two of
    ``sites``, no uplink model, free crypto.  One object per argument
    pair, so equal scenario cells compare equal."""
    return ExperimentRunner(
        latency_factory=lambda seed: LatencyModel.uniform(
            sites, one_way_ms=one_way_ms, seed=seed),
        bandwidth_factory=lambda: None, cost_model=CostModel.free())


def scenario_cell(protocol: ProtocolName, scenario: Scenario,
                  seed: int = 0, t: int = 1) -> Cell:
    """The ``(protocol, scenario)`` cell: fast timeouts on the paper's
    sites for ``t``, a uniform LAN, the scenario's workload, faults and
    adversaries.

    A scenario may override ``t`` (e.g. the t=2 cells) through
    ``config_overrides``; the site layout follows the effective ``t``.
    """
    params = dict(CELL_TIMEOUTS)
    params.update(scenario.config_overrides)
    t = params.pop("t", t)
    params.setdefault("sites", sites_for(protocol, t))
    config = ClusterConfig(t=t, protocol=protocol, **params)
    return Cell(
        config=config,
        workload=WorkloadConfig(
            num_clients=scenario.num_clients,
            request_size=scenario.request_size,
            duration_ms=scenario.duration_ms, warmup_ms=scenario.warmup_ms,
            client_site=config.sites[0],
            offered_load_rps=scenario.offered_load_rps,
            cohorts=scenario.cohorts),
        schedule=scenario.schedule(config),
        adversaries=scenario.adversaries,
        deployment=_lan(frozenset(config.sites), scenario.one_way_ms),
        seed=seed,
        liveness_bound_ms=scenario.liveness_bound_ms)


def grade(protocol: ProtocolName, scenario: Scenario,
          record: ExperimentResult, seed: int = 0) -> CellResult:
    """Grade one cell's record against the scenario's invariants."""
    benign = {replica: set(convicted)
              for replica, convicted in record.convictions.items()
              if replica not in scenario.adversaries}
    detection_ok = True
    if scenario.expect_detection:
        # Only XPaxos replicas have a detector; on anything else the
        # expectation is unsatisfiable by definition.
        accused = set(scenario.adversaries)
        detection_ok = bool(accused) and any(
            accused <= convicted for convicted in benign.values())
    convicted = sorted(set().union(*benign.values()))
    result = CellResult(
        protocol=protocol.value, scenario=scenario.name, status=PASS,
        committed=record.all_commits,
        anarchy_observed=record.anarchy_observed,
        safety_violations=len(record.safety_violations),
        liveness_violations=len(record.liveness_violations),
        detection_ok=detection_ok, convicted=convicted, seed=seed)

    if scenario.expect_anarchy:
        # Safety is only promised outside anarchy (Definition 3): the
        # cell documents the boundary instead of asserting order.
        if record.anarchy_observed:
            result.status = EXPECTED_VIOLATION
            result.detail = "anarchy reached as scripted"
        else:
            result.status = FAIL
            result.detail = "scenario never reached anarchy"
        return result

    problems: List[str] = []
    if record.anarchy_observed:
        problems.append("unexpected anarchy")
    elif record.safety_violations:
        problems.append(f"{result.safety_violations} total-order "
                        f"violations outside anarchy")
    if record.liveness_violations:
        problems.append(f"{result.liveness_violations} liveness stalls "
                        f"(first: {record.liveness_violations[0]})")
    if result.committed < scenario.min_committed:
        problems.append(f"committed {result.committed} "
                        f"< floor {scenario.min_committed}")
    if not detection_ok:
        problems.append("adversary never convicted")
    if scenario.convicted is not None \
            and set(convicted) != set(scenario.convicted):
        problems.append(
            f"convicted {convicted} != expected "
            f"{sorted(scenario.convicted)}")
    if problems:
        result.status = FAIL
        result.detail = "; ".join(problems)
    return result


def run_matrix(
    scenarios: Optional[Sequence[Scenario]] = None,
    protocols: Optional[Iterable[ProtocolName]] = None,
    seed: int = 0,
    t: int = 1,
    jobs: int = 1,
) -> MatrixResult:
    """Run and grade every requested cell (default: full library x all
    five); a cell out of the scenario's scope is :data:`SKIPPED`.

    ``jobs > 1`` farms cells to worker processes (``0`` = one per
    core).  Every cell builds its cluster from the same explicit seed
    either way and the results are merged back in canonical cell order,
    so the matrix -- and its JSON rendering -- is byte-identical to a
    ``jobs=1`` run.  A cell whose schedule cannot be built, or whose
    worker raises or dies, is recorded with status :data:`ERROR`; the
    other cells are unaffected.
    """
    scenarios = list(scenarios) if scenarios is not None \
        else builtin_scenarios()
    protocols = list(protocols) if protocols is not None \
        else list(ProtocolName)
    pairs = [(protocol, scenario) for scenario in scenarios
             for protocol in protocols]
    # Built in this process, under the same guard and error capture as
    # a run, so a schedule factory that raises or draws from the global
    # RNG fails only its own cell.
    built = parallel_map(_scenario_cell_task,
                         [(protocol, scenario, seed, t)
                          for protocol, scenario in pairs
                          if scenario.applies_to(protocol)])
    runs = iter(run_cells([b.value for b in built if b.ok], jobs=jobs))
    cells = iter(built)
    result = MatrixResult(seed=seed)
    for protocol, scenario in pairs:
        if not scenario.applies_to(protocol):
            result.cells.append(CellResult(
                protocol=protocol.value, scenario=scenario.name,
                status=SKIPPED, seed=seed, detail="out of scope"))
            continue
        outcome = next(cells)
        if outcome.ok:
            outcome = next(runs)
        if outcome.ok:
            result.cells.append(
                grade(protocol, scenario, outcome.value, seed))
        else:
            result.cells.append(CellResult(
                protocol=protocol.value, scenario=scenario.name,
                status=ERROR, seed=seed,
                detail=_error_summary(outcome.error)))
    return result


def _error_summary(trace: Optional[str]) -> str:
    """Last meaningful line of a worker traceback (fits a cell record)."""
    lines = [line.strip() for line in (trace or "").splitlines()
             if line.strip()]
    return lines[-1] if lines else "worker failed without a traceback"


@guard_global_rng
def _scenario_cell_task(task) -> Cell:
    return scenario_cell(*task)
