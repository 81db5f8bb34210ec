"""What a crash costs, on the shape of the ledger's fault workload: t = 2,
24 open-loop channels at 800 req/s, the conformance cells' timers, r0
(primary / leader of view 0) down from 1000 to 2500 ms -- and, for
XPaxos, the crashes that make the *next* view a doomed one.

Fail-over is one detection plus one view change: the service is back
within the replicas' own detection bound plus one 2-Delta gather per
view tried, and keeps up with the arrivals while the replica is still
down -- not when the injector brings it back.  XPaxos used to rotate
through four more groups led by the crashed r0 first; Paxos used to
order through r0 as an acceptor under every other leader.

A view whose group holds the crashed replica cannot form, and its 2-Delta
gather shows that: it costs the gather, not ``view_change_timeout_ms``.
A survivor that saw which member went silent does not even pay that: it
skips the views whose group holds it (``SynchronousGroups``).

A silent primary is reported by the clients: a client re-sends once its
retransmission timeout passes, estimated from the round trips it measured
(``SmrClientBase``), which on this LAN is its minimum, Delta, not the
fixed ``request_retransmit_ms``.  What suspects the primary is still the
replicas' own bound: Algorithm 4's ``timer_req`` (``commit_bound_ms``) in
XPaxos, a backup's election timer in Paxos.  A silent *follower* leaves
evidence with the survivors of its group -- a PREPARE whose vote never
comes -- and a correct, synchronous group commits a prepared slot within
``commit_bound_ms``: an active replica suspects its own view when that
passes (``xpaxos/progress.py``), before the Algorithm 4 timer the
clients' early re-sends started can.  And it never passes in a
fault-free run, however loaded: at saturation requests queue in front of
the pipeline window, not inside it.
"""

import pytest

from repro.common.config import (
    ClusterConfig,
    ProtocolName,
    WorkloadConfig,
    sites_for,
)
from repro.crypto.costs import CostModel
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.harness.configs import paper_config
from repro.harness.matrix import CELL_TIMEOUTS
from repro.harness.runner import ExperimentRunner
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.progress import commit_bound_ms
from repro.workloads.clients import make_driver

T = 2
CHANNELS = 24
RATE_RPS = 800.0
CRASH_MS, RECOVER_MS, DURATION_MS = 1_000.0, 2_500.0, 4_000.0
#: What a fail-over costs on top of its bounds: the re-send's flight, the
#: install and the first commit.
MARGIN_MS = 20.0


def failover_bound_ms(config, gathers=1):
    """The client's retransmission timeout at its minimum (Delta; the
    round trips of this 1 ms LAN are far below it), then the replicas' own
    detection bound -- Algorithm 4's ``timer_req`` in XPaxos, plus one
    2-Delta gather per view tried; the election timer a forwarded re-send
    arms on a Paxos backup -- plus ``MARGIN_MS``."""
    if config.protocol is ProtocolName.PAXOS:
        replicas = config.request_retransmit_ms
    else:
        replicas = commit_bound_ms(config) + gathers * 2 * config.delta_ms
    return config.delta_ms + replicas + MARGIN_MS


def run_with_r0_down(protocol):
    return run_with(protocol, FaultSchedule().crash_for(
        CRASH_MS, 0, RECOVER_MS - CRASH_MS))


def run_with(protocol, schedule, t=T, duration_ms=DURATION_MS,
             send_filter=None, **overrides):
    sites = sites_for(protocol, t)
    config = ClusterConfig(t=t, protocol=protocol, sites=sites,
                           **{**CELL_TIMEOUTS, **overrides})
    runtime = build_cluster(
        config, num_clients=CHANNELS,
        latency=LatencyModel.uniform(sorted(set(sites)), one_way_ms=1.0,
                                     seed=0),
        client_site=sites[0], seed=0)
    runtime.network.send_filter = send_filter
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
    """424 ms for XPaxos and 408 for Paxos when every client waited a
    fixed ``request_retransmit_ms`` before its first re-send."""
    runtime, commits = run_with_r0_down(protocol)
    config = runtime.config
    allowance = failover_bound_ms(config)
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
    (1, 2, 4): view 3 cannot form.  Its survivors r0 and r3 saw r2 go
    silent, so they skip view 3 and view 4 = (0, 3, 4) serves after one
    gather.  Waiting out ``timer_vc`` in view 3 made this gap 819 ms, and
    paying view 3's gather before abandoning it 321 ms."""
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
    for crash_ms in (1_000.0, 3_500.0):
        gap = longest_gap(commits, crash_ms, crash_ms + 1_500.0)
        assert gap < allowance, (crash_ms, gap)
    # The follower's crash is the survivors' to detect: one commit bound,
    # one gather (519 ms when it took a client's timer and Algorithm 4's).
    assert longest_gap(commits, 6_000.0, 7_500.0) \
        < commit_bound_ms(config) + 2 * config.delta_ms + MARGIN_MS
    assert max(r.view for r in runtime.replicas) == 4


def test_at_t1_a_crashed_primary_always_dooms_the_next_view():
    """Table 2's order: r0 down means view 1 = (r0, r2) is doomed too, so
    at t = 1 the abandoned gather is the normal fail-over, not the third
    crash (820 ms when view 1 was left to ``timer_vc``; 824 in the
    matrix's ``crash-primary``; 520 with a fixed client timer)."""
    runtime, commits = run_with(
        ProtocolName.XPAXOS,
        FaultSchedule().crash_for(CRASH_MS, 0, RECOVER_MS - CRASH_MS), t=1)
    groups = runtime.replica(0).groups
    assert groups.primary(0) == 0 and 0 in groups.group(1)
    gap = longest_gap(commits, CRASH_MS, RECOVER_MS)
    assert gap < failover_bound_ms(runtime.config, gathers=2), gap
    assert max(r.view for r in runtime.replicas) == 2


@pytest.mark.parametrize("t, serving", [(1, 1), (2, 2)])
def test_a_crashed_follower_is_routed_around_before_algorithm_4_can_suspect(
        t, serving):
    """r1 down for good at 1000 ms.  t = 1: view 1 = (r0, r2) serves
    after one gather; t = 2: view 1 = (1, 3, 4) holds r1 and is skipped,
    view 2 = (0, 2, 3) serves after one gather -- both under r0, whom the
    clients keep talking to.  The clients re-send one Delta after their
    requests (their timeout is estimated from the round trips they
    measured, whatever the cap), so Algorithm 4's ``timer_req`` runs as
    well; but it starts at a re-send, after the slot the watch times was
    prepared.  The watch suspects first, the view change moves the re-sent
    requests to the new view, and no replica ever suspects on Algorithm
    4's ground: none tells a client SUSPECT, and the gap is the watch's
    bound plus one gather (322 ms at t = 2 when view 1's gather was paid
    too)."""
    suspects_to_clients = []

    def record(src, dst, payload):
        if isinstance(payload, msg.Suspect) and dst.startswith("c"):
            suspects_to_clients.append((src, dst))
        return True

    runtime, commits = run_with(
        ProtocolName.XPAXOS, FaultSchedule().crash_for(CRASH_MS, 1, 10_000.0),
        t=t, duration_ms=2_000.0, send_filter=record,
        request_retransmit_ms=60_000.0)
    config = runtime.config
    groups = runtime.replica(0).groups
    assert 1 in groups.followers(0) and groups.primary(serving) == 0
    assert sum(client.timeouts for client in runtime.clients) > 0
    assert suspects_to_clients == []
    allowance = commit_bound_ms(config) + 2 * config.delta_ms + 10.0
    assert longest_gap(commits, CRASH_MS, 2_000.0) < allowance
    assert {r.view for r in runtime.replicas if not r.crashed} == {serving}


def assert_no_view_was_ever_suspected(runtime, duration_ms):
    # The watch had the time to run out, more than once.
    assert duration_ms > 1.5 * commit_bound_ms(runtime.config)
    assert [(r.view, r.view_changes_completed, r.in_view_change)
            for r in runtime.replicas] \
        == [(0, 0, False)] * runtime.config.n


def wan_runner():
    return ExperimentRunner(
        latency_factory=lambda seed: LatencyModel.ec2(seed=seed),
        bandwidth_factory=lambda: BandwidthModel(default_rate=4_000.0),
        cost_model=CostModel())


def wan_config():
    return paper_config(ProtocolName.XPAXOS, t=1)


def test_an_overloaded_open_loop_wan_cell_never_suspects_its_view():
    """The shape of the ledger ladder's top rung -- EC2 delays, scaled
    uplinks, modelled crypto CPU, 1 kB requests at 1600 req/s, four times
    what the rung below the knee offers -- for twice the commit bound."""
    duration_ms = 5_500.0
    workload = WorkloadConfig(
        num_clients=200, request_size=1024, duration_ms=duration_ms,
        warmup_ms=500.0, client_site="CA", seed=0,
        offered_load_rps=1_600.0, cohorts=4)
    runtime = wan_runner().build(wan_config(), workload)
    driver = make_driver(runtime, workload)
    driver.run()
    assert driver.throughput.total > 1_000
    assert_no_view_was_ever_suspected(runtime, duration_ms)


def test_a_saturated_closed_loop_fig7_point_never_suspects_its_view():
    """Fig 7a's last sweep point: 96 closed-loop clients, 1/0 benchmark."""
    duration_ms = 4_000.0
    workload = WorkloadConfig(
        num_clients=96, request_size=1024,
        duration_ms=duration_ms, warmup_ms=500.0, client_site="CA")
    runtime = wan_runner().build(wan_config(), workload)
    driver = make_driver(runtime, workload)
    driver.run()
    assert driver.throughput.total > 1_000
    assert_no_view_was_ever_suspected(runtime, duration_ms)
