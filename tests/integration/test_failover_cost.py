"""What a crash costs, on the shape of the ledger's fault workload: t = 2,
24 open-loop channels at 800 req/s, the conformance cells' timers, r0
(primary / leader of view 0) down from 1000 to 2500 ms -- and, for
XPaxos, the crashes that make the *next* view a doomed one.

Fail-over is one detection plus one view change: the service is back
within ``request_retransmit_ms`` + 2 x ``view_change_timeout_ms`` of the
crash and keeps up with the arrivals while the replica is still down --
not when the injector brings it back.  XPaxos used to rotate through four
more groups led by the crashed r0 first; Paxos used to order through r0
as an acceptor under every other leader.

A view whose group holds the crashed replica cannot form, and its 2-Delta
gather shows that: it costs the gather, not ``view_change_timeout_ms``.
"""

import pytest

from repro.common.config import (
    ClusterConfig,
    ProtocolName,
    WorkloadConfig,
    sites_for,
)
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.harness.matrix import CELL_TIMEOUTS
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.workloads.clients import make_driver

T = 2
CHANNELS = 24
RATE_RPS = 800.0
CRASH_MS, RECOVER_MS, DURATION_MS = 1_000.0, 2_500.0, 4_000.0


def run_with_r0_down(protocol):
    return run_with(protocol, FaultSchedule().crash_for(
        CRASH_MS, 0, RECOVER_MS - CRASH_MS))


def run_with(protocol, schedule, t=T, duration_ms=DURATION_MS):
    sites = sites_for(protocol, t)
    config = ClusterConfig(t=t, protocol=protocol, sites=sites,
                           **CELL_TIMEOUTS)
    runtime = build_cluster(
        config, num_clients=CHANNELS,
        latency=LatencyModel.uniform(sorted(set(sites)), one_way_ms=1.0,
                                     seed=0),
        client_site=sites[0], seed=0)
    driver = make_driver(runtime, WorkloadConfig(
        num_clients=CHANNELS, request_size=64, duration_ms=duration_ms,
        warmup_ms=0.0, seed=0, offered_load_rps=RATE_RPS, cohorts=2))
    checker = SafetyChecker(runtime)
    FaultInjector(runtime).arm(schedule)
    driver.run()
    checker.assert_safe()
    commits = sorted(done for client in runtime.clients
                     for _, done, _ in client.completions)
    return runtime, commits


def longest_gap(commits, since_ms, until_ms):
    """Longest stretch without a commit inside ``[since_ms, until_ms]``."""
    edges = [since_ms] + [done for done in commits
                          if since_ms <= done <= until_ms] + [until_ms]
    return max(b - a for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("protocol",
                         [ProtocolName.XPAXOS, ProtocolName.PAXOS],
                         ids=lambda p: p.value)
def test_a_crashed_leader_costs_one_failover_not_its_downtime(protocol):
    runtime, commits = run_with_r0_down(protocol)
    config = runtime.config
    allowance = config.request_retransmit_ms \
        + 2 * config.view_change_timeout_ms
    assert allowance < RECOVER_MS - CRASH_MS  # or the test shows nothing

    edges = [0.0] + commits + [DURATION_MS]
    longest_gap = max(b - a for a, b in zip(edges, edges[1:]))
    assert longest_gap < allowance, longest_gap

    # Once failed over, the service keeps up with the arrivals while r0
    # is still down.
    served = sum(1 for done in commits
                 if CRASH_MS + allowance <= done < RECOVER_MS)
    offered = RATE_RPS * (RECOVER_MS - CRASH_MS - allowance) / 1_000.0
    assert served >= 0.9 * offered, (served, offered)

    # r0 came back into a service that had moved on: state transfer must
    # leave it, and everyone it now works with, able to truncate again.
    window = 2 * config.checkpoint_period + config.pipeline_depth
    retained = {replica.name: replica.retained()["commit_log"]
                for replica in runtime.replicas}
    assert max(retained.values()) <= window, retained
    assert min(r.ex for r in runtime.replicas) \
        >= max(r.ex for r in runtime.replicas) - config.checkpoint_period


def test_a_doomed_view_costs_its_gather_not_the_view_change_timeout():
    """The ledger's rolling crashes.  The third, r2 down 6000-7500, takes
    a follower of view 2 = (0, 2, 3) that is also a member of view 3 =
    (1, 2, 4): view 3 cannot form, its gather says so after 2-Delta, and
    view 4 = (0, 3, 4) serves.  Waiting out ``timer_vc`` in view 3 made
    this gap 819 ms."""
    runtime, commits = run_with(
        ProtocolName.XPAXOS,
        FaultSchedule.rolling_crashes(replicas=(0, 1, 2), start_ms=1_000.0,
                                      interval_ms=2_500.0,
                                      downtime_ms=1_500.0),
        duration_ms=8_000.0)
    config = runtime.config
    groups = runtime.replica(0).groups
    assert 2 in groups.followers(2) and 2 in groups.group(3)
    allowance = config.request_retransmit_ms + config.view_change_timeout_ms
    for crash_ms in (1_000.0, 3_500.0, 6_000.0):
        gap = longest_gap(commits, crash_ms, crash_ms + 1_500.0)
        assert gap < allowance, (crash_ms, gap)
    assert max(r.view for r in runtime.replicas) == 4


def test_at_t1_a_crashed_primary_always_dooms_the_next_view():
    """Table 2's order: r0 down means view 1 = (r0, r2) is doomed too, so
    at t = 1 the abandoned gather is the normal fail-over, not the third
    crash (820 ms when view 1 was left to ``timer_vc``; 824 in the
    matrix's ``crash-primary``)."""
    runtime, commits = run_with(
        ProtocolName.XPAXOS,
        FaultSchedule().crash_for(CRASH_MS, 0, RECOVER_MS - CRASH_MS), t=1)
    groups = runtime.replica(0).groups
    assert groups.primary(0) == 0 and 0 in groups.group(1)
    gap = longest_gap(commits, CRASH_MS, RECOVER_MS)
    assert gap < 600.0, gap
    assert max(r.view for r in runtime.replicas) == 2
