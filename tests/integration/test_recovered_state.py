"""A replica back from a crash holds the state its peers hold.

One durability model for all five protocols: ``ex``, the logs and the
application they built survive a crash together (``docs/execution.md``,
"What `recover()` forgets").  A baseline replica used to come back with
its ``ex`` and log but a fresh application; its catch-up then replayed
only the suffix above ``ex`` onto that empty application, so after a
short crash it ended at its peers' ``ex`` with a different state digest.
(At long downtimes the peers have truncated past its horizon, state
transfer restores a snapshot, and the digests agree either way.)

Each cell: 24 open-loop channels at 800 req/s on a 0.5 ms LAN, the
conformance cells' timers, r1 down from 400 ms for 30 or 300 ms.
"""

import pytest

from repro.common.config import (
    ClusterConfig,
    ProtocolName,
    WorkloadConfig,
    sites_for,
)
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.harness.matrix import CELL_TIMEOUTS
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.workloads.clients import make_driver

CHANNELS = 24
RATE_RPS = 800.0
CRASH_MS, DURATION_MS = 400.0, 1_200.0
CRASHED = 1


def run_with_r1_down(protocol, t, downtime_ms):
    sites = sites_for(protocol, t)
    config = ClusterConfig(t=t, protocol=protocol, sites=sites,
                           **CELL_TIMEOUTS)
    runtime = build_cluster(
        config, num_clients=CHANNELS,
        latency=LatencyModel.uniform(sorted(set(sites)), one_way_ms=0.5,
                                     seed=0),
        client_site=sites[0], seed=0)
    driver = make_driver(runtime, WorkloadConfig(
        num_clients=CHANNELS, request_size=64, duration_ms=DURATION_MS,
        warmup_ms=0.0, seed=0, offered_load_rps=RATE_RPS, cohorts=2))
    FaultInjector(runtime).arm(
        FaultSchedule().crash_for(CRASH_MS, CRASHED, downtime_ms))
    driver.run()
    return runtime


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("downtime_ms", [30.0, 300.0])
@pytest.mark.parametrize(
    "protocol",
    [ProtocolName.PAXOS, ProtocolName.PBFT, ProtocolName.ZAB,
     ProtocolName.ZYZZYVA],
    ids=lambda p: p.value)
def test_equal_ex_means_equal_state_after_a_crash(protocol, downtime_ms, t):
    runtime = run_with_r1_down(protocol, t, downtime_ms)
    digests = {}
    for replica in runtime.replicas:
        digests.setdefault(replica.ex, set()).add(replica.app.state_digest())
    recovered = runtime.replica(CRASHED)
    # The check only shows something if r1 caught up with a peer.
    assert any(replica.ex == recovered.ex for replica in runtime.replicas
               if replica is not recovered), \
        {replica.name: replica.ex for replica in runtime.replicas}
    assert all(len(held) == 1 for held in digests.values()), {
        ex: len(held) for ex, held in digests.items()}
