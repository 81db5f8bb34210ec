"""What a run keeps resident is its checkpoint window plus one compact
history, on every replica (docs/execution.md, "What a replica retains").

Three properties, each of which failed before the structures named here
were bounded: a passive XPaxos replica kept every commit entry it ever
learned (it adopted no checkpoint it was not behind), the dedup set kept
every request id ever offered, and the live heap grew by ~1.07 kB per
committed request (a trace pair and a fresh id tuple per request per
replica, the request itself in the passive replica's log).
"""

import gc
import tracemalloc

import pytest

from repro.common.config import ProtocolName
from repro.faults.injector import FaultSchedule
from tests.conftest import make_cluster, make_harness, run_workload

PERIOD = 10

CLUSTERS = pytest.mark.parametrize(
    "protocol, t",
    [(ProtocolName.XPAXOS, 1), (ProtocolName.XPAXOS, 2),
     (ProtocolName.ZAB, 1)],
    ids=["xpaxos-t1", "xpaxos-t2", "zab-t1"])


@CLUSTERS
def test_every_replica_holds_one_checkpoint_window_of_log(protocol, t):
    runtime = make_cluster(protocol, t=t, num_clients=4,
                           checkpoint_period=PERIOD)
    run_workload(runtime, duration_ms=1_000.0)
    config = runtime.config
    window = 2 * PERIOD + config.pipeline_depth
    assert min(r.ex for r in runtime.replicas) >= 3 * PERIOD
    for replica in runtime.replicas:  # passive ones too
        logs = len(replica.commit_log) \
            + len(getattr(replica, "prepare_log", ()))
        assert logs <= window, (replica.name, logs)
        if protocol is ProtocolName.XPAXOS:
            stable = replica.stable_checkpoint
            assert stable is not None, replica.name
            assert replica.ex - stable.seqno <= PERIOD, replica.name
            assert replica.commit_log.low_water == stable.seqno
        else:
            # The baselines keep the previous period as well.
            assert replica.ex - replica.commit_log.low_water < 2 * PERIOD
        # One trace entry per executed slot, none per request.
        assert len(replica.execution_trace) <= replica.ex
        assert replica.retained()["trace_entries"] \
            == len(replica.execution_trace)


@pytest.mark.parametrize("protocol",
                         [ProtocolName.XPAXOS, ProtocolName.PAXOS],
                         ids=lambda p: p.value)
def test_the_window_still_bounds_the_logs_after_state_transfer(protocol):
    """t = 2.  The leader of view 0 is down while the others checkpoint
    past its horizon, so it comes back through state transfer; then the
    leader that replaced it goes down for good and the restored replica
    has to work again.  Restored to a state that no longer hashed like its
    peers', it kept every XPaxos group it joined from ever agreeing on a
    checkpoint (the logs grew with the run); and a Paxos replica kept
    every value it ever accepted, for the next election to ship."""
    harness = make_harness(protocol, t=2, num_clients=4,
                           checkpoint_period=PERIOD)
    config = harness.runtime.config

    def leader():
        view = max(r.view for r in harness.replicas if not r.crashed)
        if protocol is ProtocolName.XPAXOS:
            return harness.replica(harness.replica(0).groups.primary(view))
        return harness.replica(view % config.n)

    first = leader()
    harness.arm(FaultSchedule().crash_for(300.0, first.replica_id, 900.0))
    harness.drive(duration_ms=1_500.0)
    assert first.ex > 3 * PERIOD and not first.crashed
    assert leader() is not first
    leader().crash()
    harness.drive(duration_ms=4_000.0)
    harness.checker.assert_safe()

    window = 2 * PERIOD + config.pipeline_depth
    live = [r for r in harness.replicas if not r.crashed]
    assert first in live
    assert min(r.ex for r in live) > first.ex - PERIOD > 6 * PERIOD
    for replica in live:
        logs = len(replica.commit_log) \
            + len(getattr(replica, "prepare_log", ()))
        assert logs <= window, (replica.name, logs)
        if protocol is ProtocolName.PAXOS:
            assert len(replica._accepted) <= window, replica.name


@CLUSTERS
def test_dedupe_set_holds_only_requests_offered_and_not_yet_executed(
        protocol, t):
    clients = 4
    runtime = make_cluster(protocol, t=t, num_clients=clients,
                           checkpoint_period=PERIOD)
    offered = {replica.name: set() for replica in runtime.replicas}
    for replica in runtime.replicas:
        offer = replica.sequencer.offer

        def recording(request, offer=offer, mine=offered[replica.name]):
            accepted = offer(request)
            if accepted:
                mine.add(request.rid)
            return accepted

        replica.sequencer.offer = recording
    samples = []

    def sample():
        for replica in runtime.replicas:
            executed = {rid for _, rids in replica.execution_trace
                        for rid in rids}
            seen = replica.sequencer.seen
            assert seen <= offered[replica.name] - executed, replica.name
            # Closed loop: one request in flight per client.
            assert len(seen) <= clients
            samples.append(len(seen))

    runtime.sim.call_every(25.0, sample, 1_000.0)
    run_workload(runtime, duration_ms=1_000.0)
    sample()
    leader = runtime.replica(0)
    assert len(offered[leader.name]) > 100  # it did deduplicate all along
    assert max(samples) > 0 and len(leader.sequencer.seen) <= clients


@pytest.mark.parametrize("t", [1, 2])
def test_view_change_state_is_one_views_worth_however_many_views(t):
    """A replica holds the VCSet and VC-FINALs of the view change in
    progress (or the last one), not of every view it ever entered: after
    k scripted suspicions, at most n VIEW-CHANGEs of one checkpoint window
    each.  Kept per target view it grew with k (measured at k = 8: up to
    97 entries at t = 1 and 155 at t = 2, against bounds of 54 and 90;
    12 and 40 now)."""
    k = 8
    harness = make_harness(ProtocolName.XPAXOS, t=t, num_clients=4,
                           checkpoint_period=PERIOD)
    config = harness.runtime.config
    groups = harness.replica(0).groups
    schedule = FaultSchedule()
    for view in range(k):
        schedule.suspect(400.0 + 500.0 * view, groups.primary(view))
    harness.arm(schedule)
    harness.drive(duration_ms=400.0 + 500.0 * k)
    bound = config.n * (PERIOD + config.pipeline_depth)
    held = {replica.name: replica.retained()["view_change_entries"]
            for replica in harness.runtime.replicas}
    assert min(r.view for r in harness.runtime.replicas) >= k
    assert max(held.values()) > 0, "the view changes carried no entries"
    assert {name: n for name, n in held.items() if n > bound} == {}


def test_retransmission_records_are_one_per_client_however_many_crashes():
    """The fault shape of the ledger (t = 2, the first three replicas
    crash in turn), closed loop.  Every crash makes every client re-send,
    and a replica kept a record and a registered timer per request ever
    re-sent to it; it keeps the one per client that may still be asked
    about (measured on this run: up to 24 records on a replica and 16 / 24
    / 24 left on r0 / r3 / r4 at the end before, a peak of 8 and none left
    now)."""
    clients = 8
    harness = make_harness(ProtocolName.XPAXOS, t=2, num_clients=clients,
                           checkpoint_period=PERIOD)
    harness.arm(FaultSchedule.rolling_crashes(
        replicas=(0, 1, 2), start_ms=500.0, interval_ms=1_500.0,
        downtime_ms=1_000.0))
    registered = {r.name: len(r._timers) for r in harness.replicas}
    peaks = []

    def sample():
        peaks.append(max(r.retained()["retransmissions"]
                         for r in harness.replicas))

    harness.sim.call_every(25.0, sample, 5_000.0)
    harness.drive(duration_ms=5_000.0)
    harness.checker.assert_safe()
    assert sum(c.timeouts for c in harness.runtime.clients) >= 3 * clients
    assert 0 < max(peaks) <= clients
    for replica in harness.replicas:
        kept = replica.retained()["retransmissions"]
        assert kept <= clients, (replica.name, kept)
        assert len(replica._timers) == registered[replica.name] + kept


def live_heap_after(duration_ms):
    """``(live bytes, committed requests)`` of one XPaxos t = 1 cell, 16
    closed-loop clients, read when the run ends."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runtime = make_cluster(num_clients=16, checkpoint_period=PERIOD)
        run_workload(runtime, duration_ms=duration_ms, request_size=64)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return live, sum(len(c.completions) for c in runtime.clients)


def test_live_heap_grows_by_a_budget_per_extra_commit():
    """Twice the slots, and the heap grows only by what the run's record
    takes: a completion and a request id per commit at the clients, a
    trace entry per slot per replica.  Measured 0.18 kB per extra commit
    (1.07 kB before this bound existed); the budget leaves headroom for
    the allocator, not for a per-request-per-replica structure (a pair
    and a list slot on each of three replicas: +0.19 kB at the least)."""
    budget_bytes = 300
    live_n, commits_n = live_heap_after(400.0)
    live_2n, commits_2n = live_heap_after(800.0)
    extra = commits_2n - commits_n
    assert extra > 1_000
    per_commit = (live_2n - live_n) / extra
    assert per_commit < budget_bytes, per_commit
