"""Soak test: a long run mixing every benign fault type on the WAN model.

One extended XPaxos run over the EC2 latency matrix with rolling crashes,
transient partitions, and checkpointing enabled -- everything the protocol
offers, at once.  Invariants checked at the end:

* total order across benign replicas (no anarchy occurred: no Byzantine
  replicas were configured);
* every client's committed timestamps form a gapless prefix (exactly-once
  execution);
* replicas converge to one view and one state digest;
* checkpoints advanced (log truncation worked under churn).
"""

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.protocols.registry import build_cluster
from repro.smr.app import KVStore
from repro.workloads.clients import ClosedLoopDriver


class SoakStore(KVStore):
    """Benchmark clients cycle each over 50 keys of their own."""

    def benchmark_op(self, client_id, seq):
        return ("put", f"key-{client_id}-{seq % 50}", seq)


@pytest.mark.parametrize("seed", [11, 23])
def test_xpaxos_soak(seed):
    config = ClusterConfig(
        t=1, protocol=ProtocolName.XPAXOS,
        delta_ms=1_250.0,
        request_retransmit_ms=2_500.0,
        view_change_timeout_ms=10_000.0,
        batch_timeout_ms=5.0,
        checkpoint_period=64,
        use_lazy_replication=True,
    )
    runtime = build_cluster(
        config, num_clients=8, app_factory=SoakStore,
        latency=LatencyModel.ec2(seed=seed),
        bandwidth=BandwidthModel(), seed=seed)
    checker = SafetyChecker(runtime)

    duration = 90_000.0
    schedule = (FaultSchedule()
                .crash_for(15_000.0, 1, 4_000.0)
                .partition(30_000.0, "r0", "r1")
                .heal(36_000.0, "r0", "r1")
                .crash_for(45_000.0, 0, 4_000.0)
                .crash_for(60_000.0, 2, 4_000.0)
                .partition(72_000.0, "r1", "r2")
                .heal(76_000.0, "r1", "r2"))
    FaultInjector(runtime).arm(schedule)
    checker.observe_periodically(1_000.0, duration)

    driver = ClosedLoopDriver(
        runtime,
        WorkloadConfig(num_clients=8, request_size=512,
                       duration_ms=duration, warmup_ms=1_000.0))
    driver.run()
    # Quiesce.
    runtime.sim.run(until=duration + 20_000.0)

    # Never in anarchy (no Byzantine replicas), so safety must be perfect.
    assert not checker.anarchy_observed
    checker.assert_safe()
    assert checker.violations() == []

    # Meaningful progress through all that chaos.
    assert driver.throughput.total > 1_000

    # Exactly-once per client: timestamps are a gapless prefix.
    for client in runtime.clients:
        timestamps = [rid[1] for _, _, rid in client.completions]
        assert timestamps == list(range(1, len(timestamps) + 1))

    # Views converged.
    views = {r.view for r in runtime.replicas}
    assert len(views) == 1

    # Checkpointing advanced under churn -- on every replica, whichever
    # role it ended in (``any`` here is how a passive replica that never
    # truncated went unnoticed): a stable checkpoint less than two periods
    # below its execution horizon, and logs no longer than that window.
    period = config.checkpoint_period
    window = 2 * period + config.pipeline_depth
    for replica in runtime.replicas:
        assert not replica.crashed
        stable = replica.stable_checkpoint
        assert stable is not None and stable.seqno >= period, replica.name
        assert replica.ex - stable.seqno < 2 * period, replica.name
        assert len(replica.commit_log) + len(replica.prepare_log) \
            <= window, replica.name


def test_all_protocols_mixed_workload_convergence():
    """Every protocol replicates the same mixed KV workload to the same
    final state digest (cross-protocol determinism of the SMR layer)."""
    digests = {}
    for protocol in ProtocolName:
        config = ClusterConfig(t=1, protocol=protocol, delta_ms=50.0,
                               request_retransmit_ms=500.0,
                               view_change_timeout_ms=1_000.0,
                               batch_timeout_ms=2.0)
        runtime = build_cluster(config, num_clients=1,
                                app_factory=KVStore, seed=9)
        client = runtime.clients[0]
        script = [("put", "a", 1), ("put", "b", 2), ("cas", "a", 1, 3),
                  ("delete", "b"), ("put", "c", [1, 2])]
        results = []
        client.on_result = results.append

        def next_op():
            if script:
                client.propose(script.pop(0), size_bytes=32)

        client.on_result = lambda r: (results.append(r), next_op())
        next_op()
        runtime.sim.run(until=10_000.0)
        assert len(results) == 5, protocol
        digests[protocol] = runtime.replica(0).app.state_digest()
    assert len(set(digests.values())) == 1, digests
