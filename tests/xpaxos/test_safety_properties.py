"""Property-based safety tests: random benign fault schedules must never
violate total order (Definition 3 outside anarchy)."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.protocols.registry import build_cluster
from repro.workloads.clients import ClosedLoopDriver


def build(t, seed):
    config = ClusterConfig(
        t=t, protocol=ProtocolName.XPAXOS, delta_ms=50.0,
        request_retransmit_ms=200.0, view_change_timeout_ms=400.0,
        batch_timeout_ms=2.0)
    return build_cluster(config, num_clients=2, seed=seed)


crash_events = st.lists(
    st.tuples(
        st.floats(min_value=500.0, max_value=4_000.0),  # crash time
        st.integers(min_value=0, max_value=2),           # victim
        st.floats(min_value=200.0, max_value=1_500.0),   # downtime
    ),
    min_size=0, max_size=3,
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=crash_events, seed=st.integers(min_value=0, max_value=100))
def test_random_crash_schedules_never_violate_safety(events, seed):
    """Crash faults are benign: any schedule of crashes and recoveries
    (even ones that temporarily stop progress) must preserve total order."""
    runtime = build(t=1, seed=seed)
    schedule = FaultSchedule()
    # Never crash two replicas at overlapping times in this property (that
    # can stall progress, which is fine, but keep runs short).
    for at, victim, downtime in events:
        schedule.crash_for(at, victim, downtime)
    FaultInjector(runtime).arm(schedule)
    checker = SafetyChecker(runtime)
    driver = ClosedLoopDriver(
        runtime, WorkloadConfig(num_clients=2, request_size=32,
                                duration_ms=6_000.0, warmup_ms=100.0))
    driver.run()
    checker.assert_safe()
    assert checker.violations() == []


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(["r0", "r1", "r2"]),
                  st.sampled_from(["r0", "r1", "r2"]),
                  st.floats(min_value=500.0, max_value=3_000.0),
                  st.floats(min_value=200.0, max_value=1_500.0)),
        min_size=0, max_size=2),
    seed=st.integers(min_value=0, max_value=50),
)
def test_random_partitions_never_violate_safety(pairs, seed):
    """Network faults alone (no non-crash faults) can never break
    consistency -- XPaxos inherits the CFT column of Table 1."""
    runtime = build(t=1, seed=seed)
    schedule = FaultSchedule()
    for a, b, at, duration in pairs:
        if a != b:
            schedule.partition(at, a, b)
            schedule.heal(at + duration, a, b)
    FaultInjector(runtime).arm(schedule)
    checker = SafetyChecker(runtime)
    driver = ClosedLoopDriver(
        runtime, WorkloadConfig(num_clients=2, request_size=32,
                                duration_ms=6_000.0, warmup_ms=100.0))
    driver.run()
    checker.assert_safe()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000))
def test_fault_free_runs_are_deterministic_and_ordered(seed):
    runtime = build(t=1, seed=seed)
    checker = SafetyChecker(runtime)
    driver = ClosedLoopDriver(
        runtime, WorkloadConfig(num_clients=2, request_size=32,
                                duration_ms=2_000.0, warmup_ms=100.0))
    driver.run()
    assert checker.violations() == []
    assert driver.throughput.total > 0


def test_overlapping_crashes_preserve_sole_survivor_log():
    """Regression (found by the crash-schedule property): with r1 down
    500-1764 ms and r0 down 1000-1582 ms, r2 is briefly the sole holder
    of a committed slot and enters a view whose actives are both still
    down -- its VIEW-CHANGE was sent once and lost, and the new actives
    later re-assigned that slot to a different batch.  The passive-side
    VIEW-CHANGE retransmission (reliable-channel emulation) must carry
    r2's log into the eventual view."""
    runtime = build(t=1, seed=0)
    schedule = (FaultSchedule()
                .crash_for(500.0, 1, 1264.193244329622)
                .crash_for(1000.0, 0, 582.0))
    FaultInjector(runtime).arm(schedule)
    checker = SafetyChecker(runtime)
    driver = ClosedLoopDriver(
        runtime, WorkloadConfig(num_clients=2, request_size=32,
                                duration_ms=6_000.0, warmup_ms=100.0))
    driver.run()
    checker.assert_safe()
    assert checker.violations() == []
    assert driver.throughput.total > 0


def test_client_commit_implies_majority_persistence():
    """Every client-committed request must be in the commit logs (or the
    executed state) of at least t+1 replicas at the end of a run."""
    runtime = build(t=1, seed=7)
    driver = ClosedLoopDriver(
        runtime, WorkloadConfig(num_clients=2, request_size=32,
                                duration_ms=2_000.0, warmup_ms=0.0))
    driver.run()
    committed_rids = {rid for client in runtime.clients
                      for _, _, rid in client.completions}
    assert committed_rids
    for rid in committed_rids:
        holders = sum(
            1 for replica in runtime.replicas
            if any(rid in rids for _, rids in replica.execution_trace))
        assert holders >= runtime.config.t + 1, (
            f"{rid} committed by client but held by only {holders} replicas")
