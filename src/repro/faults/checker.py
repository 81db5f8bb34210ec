"""Safety checker: total order across benign replicas, anarchy tracking.

The checker implements the paper's correctness criteria directly:

* **Total order** (safety, Section 2): for any two benign replicas, the
  sequences of requests they executed must be prefix-compatible, and no two
  benign replicas may execute different requests at the same sequence
  number *unless the system was in anarchy at some point* (Definition 3:
  an XFT protocol satisfies safety in all executions never in anarchy).
* **Validity**: every executed request was invoked by a client.
* **Anarchy tracking** (Definition 2): at any observation instant,
  ``anarchy <=> tnc > 0 and tnc + tc + tp > t``, with ``tp`` computed per
  Definition 1 from the network state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.net.partition import partitioned_replicas
from repro.reliability.models import anarchy
from repro.smr.runtime import ClusterRuntime


@dataclass
class SafetyViolation:
    """A detected divergence between benign replicas."""

    seqno: int
    replica_a: int
    replica_b: int
    rid_a: tuple
    rid_b: tuple

    def __str__(self) -> str:
        return (f"sn {self.seqno}: r{self.replica_a} executed {self.rid_a} "
                f"but r{self.replica_b} executed {self.rid_b}")


def check_total_order(traces: Dict[int, Sequence[tuple]]) -> List[SafetyViolation]:
    """Cross-check execution traces of benign replicas.

    Args:
        traces: ``replica id -> [(seqno, rids), ...]`` in execution order,
            one entry per executed slot (``ReplicaBase.execution_trace``).

    Returns:
        All pairwise per-slot divergences (empty list = total order holds).

    A slot carries a batch; its request-id tuple must agree across the
    replicas that executed the slot.  A replica executes a slot once; a
    trace naming one twice is graded on everything it ran there.
    """
    per_replica_slots: Dict[int, Dict[int, tuple]] = {}
    for replica, trace in traces.items():
        slots: Dict[int, tuple] = {}
        for seqno, rids in trace:
            slots[seqno] = slots[seqno] + rids if seqno in slots else rids
        per_replica_slots[replica] = slots
    violations: List[SafetyViolation] = []
    replicas = sorted(per_replica_slots)
    for i, ra in enumerate(replicas):
        for rb in replicas[i + 1:]:
            slots_a, slots_b = per_replica_slots[ra], per_replica_slots[rb]
            for seqno in sorted(set(slots_a) & set(slots_b)):
                if slots_a[seqno] != slots_b[seqno]:
                    violations.append(SafetyViolation(
                        seqno=seqno, replica_a=ra, replica_b=rb,
                        rid_a=slots_a[seqno], rid_b=slots_b[seqno]))
    return violations


class SafetyChecker:
    """Continuously assesses a running cluster.

    Tracks which replicas are non-crash-faulty (declared by the test when it
    attaches an adversary), observes crashes and partitions, and can answer
    "was the system ever in anarchy?" -- the precondition of every XFT
    safety guarantee.
    """

    def __init__(self, runtime: ClusterRuntime,
                 non_crash_faulty: Iterable[int] = ()) -> None:
        self.runtime = runtime
        self.non_crash_faulty: Set[int] = set(non_crash_faulty)
        self.anarchy_observed = False
        self._observations: List[Tuple[float, bool]] = []

    # ------------------------------------------------------------------
    def fault_counts(self) -> Tuple[int, int, int]:
        """Current ``(tnc, tc, tp)`` per Definitions 1-2."""
        config = self.runtime.config
        assert config.n is not None
        tnc = len(self.non_crash_faulty)
        crashed = {r.replica_id for r in self.runtime.replicas
                   if r.crashed and r.replica_id not in self.non_crash_faulty}
        tc = len(crashed)
        correct_up = [f"r{r.replica_id}" for r in self.runtime.replicas
                      if not r.crashed
                      and r.replica_id not in self.non_crash_faulty]
        partitioned = partitioned_replicas(
            correct_up,
            lambda a, b: self.runtime.network.timely(a, b,
                                                     config.delta_ms))
        tp = len(partitioned)
        return tnc, tc, tp

    def in_anarchy(self) -> bool:
        """Definition 2 evaluated right now."""
        tnc, tc, tp = self.fault_counts()
        return anarchy(self.runtime.config.t, tnc, tc, tp)

    def observe(self) -> bool:
        """Record one observation; returns whether anarchy holds now."""
        now_anarchy = self.in_anarchy()
        self._observations.append((self.runtime.sim.now, now_anarchy))
        self.anarchy_observed = self.anarchy_observed or now_anarchy
        return now_anarchy

    def observe_periodically(self, period_ms: float,
                             until_ms: float) -> None:
        """Schedule periodic observations on the simulator.

        One live event at a time (``Simulator.call_every``): arming a
        long horizon costs O(1) heap entries, not O(until/period).
        """
        self.runtime.sim.call_every(period_ms, self.observe, until_ms)

    # ------------------------------------------------------------------
    def benign_traces(self) -> Dict[int, Sequence[tuple]]:
        """Execution traces of all replicas not declared Byzantine."""
        return {r.replica_id: r.execution_trace
                for r in self.runtime.replicas
                if r.replica_id not in self.non_crash_faulty}

    def violations(self) -> List[SafetyViolation]:
        """Total-order violations among benign replicas."""
        return check_total_order(self.benign_traces())

    def assert_safe(self) -> None:
        """Raise AssertionError when safety is violated outside anarchy.

        This is *the* XFT guarantee (Definition 3): violations are only
        admissible if anarchy was observed at some point.
        """
        violations = self.violations()
        if violations and not self.anarchy_observed:
            raise AssertionError(
                "consistency violated outside anarchy: "
                + "; ".join(str(v) for v in violations[:5]))
