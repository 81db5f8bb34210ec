"""What a crash costs, on the shape of the ledger's fault workload: t = 2,
24 open-loop channels at 800 req/s, the conformance cells' timers, r0
(primary / leader of view 0) down from 1000 to 2500 ms.

Fail-over is one detection plus one view change: the service is back
within ``request_retransmit_ms`` + 2 x ``view_change_timeout_ms`` of the
crash and keeps up with the arrivals while the replica is still down --
not when the injector brings it back.  XPaxos used to rotate through four
more groups led by the crashed r0 first; Paxos used to order through r0
as an acceptor under every other leader.
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
    sites = sites_for(protocol, T)
    config = ClusterConfig(t=T, protocol=protocol, sites=sites,
                           **CELL_TIMEOUTS)
    runtime = build_cluster(
        config, num_clients=CHANNELS,
        latency=LatencyModel.uniform(sorted(set(sites)), one_way_ms=1.0,
                                     seed=0),
        client_site=sites[0], seed=0)
    driver = make_driver(runtime, WorkloadConfig(
        num_clients=CHANNELS, request_size=64, duration_ms=DURATION_MS,
        warmup_ms=0.0, seed=0, offered_load_rps=RATE_RPS, cohorts=2))
    checker = SafetyChecker(runtime)
    FaultInjector(runtime).arm(FaultSchedule().crash_for(
        CRASH_MS, 0, RECOVER_MS - CRASH_MS))
    driver.run()
    checker.assert_safe()
    commits = sorted(done for client in runtime.clients
                     for _, done, _ in client.completions)
    return runtime, commits


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
