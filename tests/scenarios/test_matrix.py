"""The scenario conformance matrix, parametrized cell by cell.

This package is the repo's standing correctness net: every protocol runs
every in-scope scenario of the built-in library and must satisfy its
safety/liveness invariants.  A perf or refactor PR that breaks fault
handling fails here with the exact ``(protocol, scenario)`` cell named,
and a cell whose record (commits, violations, detail) moves from the
committed ``SCENARIO_matrix.json`` golden fails here too.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.common.config import ProtocolName
from repro.faults.checker import check_exactly_once
from repro.harness.matrix import (
    EXPECTED_VIOLATION,
    FAIL,
    MatrixRunner,
    PASS,
    SKIPPED,
)
from repro.scenarios import builtin_scenarios, get_scenario

SCENARIOS = builtin_scenarios()

#: The full-matrix golden (seed 0, t = 1: what ``test_cell`` runs), one
#: record per ``(scenario, protocol)``.
GOLDEN = {(record["scenario"], record["protocol"]): record
          for record in json.loads(
              (Path(__file__).resolve().parents[2]
               / "SCENARIO_matrix.json").read_text())["cells"]}

#: The one known repeated execution, pinned so that a fix and a new repeat
#: both fail the cell: r1, partitioned from 2500 to 4500 ms, queues the
#: clients' re-sends while it campaigns, wins ballot 16 while behind, and
#: orders them at slot 877 before it has caught up (ROADMAP, open items).
KNOWN_REPEATS = {
    ("follower-isolated", "paxos"): [
        (replica, (client, 544), 544, 877)
        for replica in (0, 2) for client in (0, 1, 2)],
}


@pytest.mark.parametrize("protocol", list(ProtocolName),
                         ids=[p.value for p in ProtocolName])
@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[s.name for s in SCENARIOS])
class TestConformanceMatrix:
    def test_cell(self, scenario, protocol):
        runtimes = []
        cell = MatrixRunner(seed=0).run_cell(protocol, scenario,
                                             probe=runtimes.append)
        # Compared as the golden stores it (JSON: tuples become lists).
        assert json.loads(json.dumps(asdict(cell))) \
            == GOLDEN[(scenario.name, protocol.value)]
        if not scenario.applies_to(protocol):
            assert cell.status == SKIPPED
            return
        if scenario.expect_anarchy:
            # The cell documents the boundary: anarchy must actually be
            # reached, and safety is then exempt by Definition 3.
            assert cell.status == EXPECTED_VIOLATION, cell.detail
            assert cell.anarchy_observed
            return
        assert cell.status == PASS, cell.detail
        assert cell.committed >= scenario.min_committed
        assert cell.safety_violations == 0
        assert not cell.anarchy_observed
        # Exactly once: no benign replica executes a request twice.
        traces = {r.replica_id: r.execution_trace
                  for r in runtimes[0].replicas
                  if r.replica_id not in scenario.adversaries}
        assert check_exactly_once(traces) == KNOWN_REPEATS.get(
            (scenario.name, protocol.value), [])


class TestCellGrading:
    def test_out_of_scope_cell_is_skipped(self):
        # Byzantine scenarios need the non-crash adversary hook, which
        # only XPaxos models -- the last genuinely out-of-scope cells.
        cell = MatrixRunner().run_cell(
            ProtocolName.PBFT, get_scenario("byzantine-primary-data-loss"))
        assert cell.status == SKIPPED and cell.ok

    def test_crash_primary_now_in_scope_for_baselines(self):
        """The baseline view-change work brought the leader-fault cells
        into scope: a crashed PBFT primary must no longer stall the
        protocol forever."""
        cell = MatrixRunner(seed=0).run_cell(ProtocolName.PBFT,
                                             get_scenario("crash-primary"))
        assert cell.status == PASS, cell.detail
        assert cell.liveness_violations == 0

    def test_detection_expectation_enforced(self):
        scenario = get_scenario("byzantine-primary-data-loss")
        cell = MatrixRunner(seed=0).run_cell(ProtocolName.XPAXOS, scenario)
        assert cell.status == PASS and cell.detection_ok

    def test_convicted_expectation_names_the_culprit(self):
        """The detection scenarios assert *which* replica the fault
        detector convicts, not merely that someone is."""
        scenario = get_scenario("byzantine-primary-data-loss")
        assert scenario.convicted == frozenset({0})
        cell = MatrixRunner(seed=0).run_cell(ProtocolName.XPAXOS, scenario)
        assert cell.convicted == [0]
        assert cell.status == PASS

    def test_wrong_convicted_expectation_fails_the_cell(self):
        import dataclasses

        scenario = dataclasses.replace(
            get_scenario("byzantine-primary-data-loss"),
            convicted=frozenset({2}))
        cell = MatrixRunner(seed=0).run_cell(ProtocolName.XPAXOS, scenario)
        assert cell.status == FAIL
        assert "convicted" in cell.detail

    def test_t2_scenario_runs_five_replica_clusters(self):
        scenario = get_scenario("crash-two-followers-t2")
        runner = MatrixRunner(seed=0)
        config = runner.base_config(ProtocolName.PAXOS, scenario)
        assert config.t == 2 and config.n == 5
        cell = runner.run_cell(ProtocolName.PAXOS, scenario)
        assert cell.status == PASS, cell.detail

    def test_same_seed_is_byte_identical(self):
        scenario = get_scenario("crash-follower")
        runs = []
        for _ in range(2):
            runner = MatrixRunner(seed=5)
            result = runner.run_matrix(scenarios=[scenario],
                                       protocols=[ProtocolName.XPAXOS])
            runs.append(result.to_json())
        assert runs[0] == runs[1]

    def test_invariants_hold_across_seeds(self):
        scenario = get_scenario("fault-free")
        cells = [MatrixRunner(seed=seed).run_cell(ProtocolName.XPAXOS,
                                                  scenario)
                 for seed in (0, 1)]
        assert all(c.status == PASS for c in cells)
        assert all(c.seed == seed for c, seed in zip(cells, (0, 1)))

    def test_grid_formats_every_cell(self):
        runner = MatrixRunner(seed=0)
        result = runner.run_matrix(
            scenarios=[get_scenario("fault-free")],
            protocols=list(ProtocolName))
        grid = result.format_grid()
        for protocol in ProtocolName:
            assert protocol.value in grid
        assert "fault-free" in grid
        assert "5 pass" in grid

    def test_matrix_result_lookup_and_failures(self):
        result = MatrixRunner(seed=0).run_matrix(
            scenarios=[get_scenario("fault-free")],
            protocols=[ProtocolName.PAXOS])
        cell = result.cell(ProtocolName.PAXOS, "fault-free")
        assert cell.status == PASS
        assert result.failures == []
        with pytest.raises(KeyError):
            result.cell(ProtocolName.ZAB, "fault-free")
