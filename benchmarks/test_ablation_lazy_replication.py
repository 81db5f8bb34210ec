"""Ablation: lazy replication (Section 4.5.2).

The paper attributes Figure 9's fast (<10 s) view changes to lazy
replication keeping passive replicas warm.  Without it, a passive replica
that becomes active must fetch the whole prefix during the view change.
"""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.faults.injector import FaultSchedule
from repro.harness.configs import paper_config
from repro.harness.timeline import run_fault_timeline

from conftest import wan_runner


def run_crash(lazy: bool):
    runner = wan_runner()
    config = paper_config(
        ProtocolName.XPAXOS,
        delta_ms=1_250.0,
        request_retransmit_ms=2_500.0,
        view_change_timeout_ms=10_000.0,
        use_lazy_replication=lazy,
        checkpoint_period=512,
    )
    workload = WorkloadConfig(num_clients=32, request_size=1024,
                              duration_ms=40_000.0, warmup_ms=2_000.0,
                              client_site="CA")
    # Crash the follower: the passive replica must step in.
    schedule = FaultSchedule().crash_for(15_000.0, 1, 5_000.0)
    return run_fault_timeline(runner, config, workload, schedule,
                              window_ms=1_000.0)


def test_lazy_replication_ablation(benchmark):
    def build():
        return {lazy: run_crash(lazy) for lazy in (True, False)}

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== ablation: lazy replication during a follower crash ===")
    for lazy, result in results.items():
        print(f"lazy={str(lazy):>5}: committed={result.committed:>6} "
              f"longest gap={result.longest_gap_ms() / 1000.0:.1f}s "
              f"views={max(result.final_views.values())}")

    with_lazy = results[True]
    without_lazy = results[False]
    # Both recover (checkpoint state transfer covers the non-lazy case).
    assert with_lazy.committed > 2_000
    assert without_lazy.committed > 1_000
    # Lazy replication commits at least as much and never recovers slower.
    assert with_lazy.committed >= 0.95 * without_lazy.committed
    assert with_lazy.longest_gap_ms() <= \
        without_lazy.longest_gap_ms() + 2_000.0
    # Warm passive replica: by the end, the previously passive replica has
    # executed (nearly) the full prefix in the lazy configuration.
    assert with_lazy.longest_gap_ms() < 10_000.0
