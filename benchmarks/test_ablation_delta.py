"""Ablation: sensitivity to the synchrony bound Delta (Section 5.1.1).

Delta trades recovery speed against false suspicion: a small Delta times
out the 2-Delta view-change collection phase faster but risks declaring
network faults on mere tail latency; a large Delta is conservative.  The
paper picks Delta = 1.25 s from the 99.99th RTT percentile.
"""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.faults.injector import FaultSchedule
from repro.harness.configs import paper_config
from repro.harness.timeline import run_fault_timeline

from conftest import wan_runner

DELTAS_MS = (150.0, 1_250.0, 5_000.0)


def run_with_delta(delta_ms: float):
    runner = wan_runner()
    config = paper_config(
        ProtocolName.XPAXOS,
        delta_ms=delta_ms,
        request_retransmit_ms=max(2 * delta_ms, 1_000.0),
        view_change_timeout_ms=max(8 * delta_ms, 4_000.0),
    )
    workload = WorkloadConfig(num_clients=32, request_size=1024,
                              duration_ms=40_000.0, warmup_ms=2_000.0,
                              client_site="CA")
    schedule = FaultSchedule().crash_for(15_000.0, 1, 5_000.0)
    return run_fault_timeline(runner, config, workload, schedule,
                              window_ms=1_000.0)


def test_delta_ablation(benchmark):
    def build():
        return {delta: run_with_delta(delta) for delta in DELTAS_MS}

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== ablation: Delta sensitivity (follower crash at 15 s) ===")
    for delta, result in results.items():
        print(f"Delta={delta / 1000.0:6.2f}s: committed={result.committed:>6} "
              f"longest gap={result.longest_gap_ms() / 1000.0:5.1f}s "
              f"view changes={max(result.view_changes.values())}")

    # Every Delta recovers.
    for result in results.values():
        assert result.committed > 2_000
    # The paper's Delta keeps recovery under 10 s.
    assert results[1_250.0].longest_gap_ms() < 10_000.0
    # A larger Delta cannot recover faster than the paper's choice
    # (the 2-Delta collection phase lower-bounds the view change).
    assert results[5_000.0].longest_gap_ms() >= \
        results[1_250.0].longest_gap_ms() - 1_000.0
