#!/usr/bin/env python3
"""Fault-tolerance demo, written against the Scenario API.

Three acts, each one cell of the scenario conformance matrix
(:mod:`repro.scenarios` + :mod:`repro.harness.matrix`):

1. **Crash faults** -- the Figure 9 pattern (``rolling-crashes``): each
   replica crashes in turn; view changes keep the service alive.
2. **Network faults** -- a partitioned follower (``follower-isolated``);
   XPaxos rotates to a connected synchronous group.
3. **A non-crash fault** -- a data-loss adversary on the primary
   (``byzantine-primary-data-loss``); with fault detection enabled, the
   view change convicts it (Section 4.4) while the system stays outside
   anarchy.

The same cells regress in CI; run ``python -m repro scenarios`` for the
full matrix, or define your own :class:`repro.scenarios.Scenario` as in
``custom_scenario()`` below.

Run:  python examples/fault_tolerance_demo.py
"""

from repro.common.config import ProtocolName
from repro.faults.injector import FaultSchedule
from repro.harness.matrix import CellResult, run_matrix
from repro.scenarios.library import get_scenario
from repro.scenarios.scenario import Scenario


#: Every act's cells run from this seed.
SEED = 1


def run(protocol: ProtocolName, scenario: Scenario) -> CellResult:
    """One graded ``(protocol, scenario)`` cell of the matrix."""
    return run_matrix([scenario], [protocol], seed=SEED).cells[0]


def show(title: str, cell) -> None:
    print(f"== {title} ==")
    print(f"  status={cell.status}  committed={cell.committed}  "
          f"anarchy={cell.anarchy_observed}  "
          f"safety violations={cell.safety_violations}  "
          f"liveness stalls={cell.liveness_violations}")
    if cell.detail:
        print(f"  detail: {cell.detail}")
    print()


def act_one_crashes() -> None:
    cell = run(ProtocolName.XPAXOS, get_scenario("rolling-crashes"))
    show("act 1: rolling crashes (the Figure 9 pattern)", cell)
    assert cell.ok, cell.detail


def act_two_partitions() -> None:
    cell = run(ProtocolName.XPAXOS, get_scenario("follower-isolated"))
    show("act 2: network fault inside the synchronous group", cell)
    assert cell.ok, cell.detail


def act_three_byzantine() -> None:
    cell = run(ProtocolName.XPAXOS,
               get_scenario("byzantine-primary-data-loss"))
    show("act 3: data-loss fault + fault detection", cell)
    assert cell.ok and cell.detection_ok, cell.detail
    print("  outside anarchy the fault was caught BEFORE it could pair "
          "with enough crashes to break consistency\n")


def custom_scenario() -> Scenario:
    """Rolling a scenario of your own takes a schedule and invariants."""
    return Scenario(
        name="demo-custom",
        description="crash the follower while its link to the passive "
                    "replica flaps, then require full recovery",
        schedule=lambda config: (
            FaultSchedule()
            .crash_for(2_000.0, 1, 800.0)
            .merge(FaultSchedule.flapping_partition(
                "r1", "r2", start_ms=3_200.0, period_ms=600.0, flaps=2))),
        protocols=frozenset({ProtocolName.XPAXOS, ProtocolName.PAXOS}),
        liveness_bound_ms=2_500.0,
    )


def act_four_custom() -> None:
    scenario = custom_scenario()
    for protocol in (ProtocolName.XPAXOS, ProtocolName.PAXOS):
        cell = run(protocol, scenario)
        show(f"act 4: a custom scenario on {protocol.value}", cell)
        assert cell.ok, cell.detail


def main() -> None:
    act_one_crashes()
    act_two_partitions()
    act_three_byzantine()
    act_four_custom()
    print("all acts completed with total order intact")


if __name__ == "__main__":
    main()
