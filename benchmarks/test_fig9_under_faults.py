"""Figure 9: XPaxos throughput under faults.

The paper's run: t = 1 over (CA, VA, JP); crash the follower VA at 180 s,
the primary CA at 300 s, the passive JP at 420 s; each recovers 20 s later;
Delta = 1.25 s.  "After each crash, the system performs a view change that
lasts less than 10 sec" thanks to lazy replication, and throughput varies
across views with the primary-follower RTT.

We run the same schedule on a compressed timeline (the 500 s run shrinks to
125 s with crashes at 45/75/105 s) -- the schedule shape, Delta, and the
view-change machinery are identical; only the steady-state plateaus are
shorter.
"""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.faults.injector import FaultSchedule
from repro.harness.configs import paper_config
from repro.harness.runner import Cell, run_cell

from conftest import wan_runner

DURATION_MS = 125_000.0
DOWNTIME_MS = 5_000.0
#: VA, CA, JP in turn at 45 / 75 / 105 s.
SCHEDULE = FaultSchedule.rolling_crashes((1, 0, 2), 45_000.0, 30_000.0,
                                         DOWNTIME_MS)


def test_fig9(benchmark):
    def build():
        deployment = wan_runner()
        config = paper_config(
            ProtocolName.XPAXOS,
            delta_ms=1_250.0,                   # the paper's Delta
            request_retransmit_ms=2_500.0,
            view_change_timeout_ms=10_000.0,
        )
        workload = WorkloadConfig(num_clients=32, request_size=1024,
                                  duration_ms=DURATION_MS,
                                  warmup_ms=2_000.0, client_site="CA")
        return run_cell(Cell(config, workload, SCHEDULE,
                             deployment=deployment))

    result = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== Figure 9: XPaxos throughput under faults ===")
    print("time (s) -> kops/s (1 s windows, sampled every 5 s)")
    for start, kops in result.throughput_series[::5]:
        bar = "#" * int(kops * 200)
        print(f"{start / 1000.0:7.0f}s {kops:7.3f} {bar}")
    print(f"view changes completed: {result.view_changes}")
    print(f"final views: {result.final_views}")
    print(f"zero-throughput gaps (s): "
          f"{[g / 1000.0 for g in result.recovery_gaps_ms]}")

    # The run makes progress overall.
    assert result.committed > 5_000
    # Each crash of an *active* replica forces a view change; the passive
    # crash (JP, third crash) does not.  At least 2 view changes total.
    assert max(result.final_views.values()) >= 2
    # The paper's headline: every outage is shorter than 10 s.
    assert result.longest_gap_ms() < 10_000.0, result.recovery_gaps_ms
    # Throughput resumed after the last crash window.
    last_crash_end = SCHEDULE.end_ms
    tail = [kops for start, kops in result.throughput_series
            if start > last_crash_end]
    assert tail and max(tail) > 0.05


def test_fig9_views_have_different_throughput(benchmark):
    """'The throughput of XPaxos changes with the views ... because the
    latencies between the primary and the follower and between the primary
    and clients vary from view to view.'"""

    def build():
        deployment = wan_runner()
        config = paper_config(
            ProtocolName.XPAXOS,
            delta_ms=1_250.0,
            request_retransmit_ms=2_500.0,
            view_change_timeout_ms=10_000.0,
        )
        workload = WorkloadConfig(num_clients=32, request_size=1024,
                                  duration_ms=60_000.0,
                                  warmup_ms=2_000.0, client_site="CA")
        # Crash the follower permanently at 20 s: the system settles into a
        # different view (CA, JP) whose primary-follower RTT is longer.
        schedule = FaultSchedule().crash(20_000.0, 1)
        return run_cell(Cell(config, workload, schedule,
                             deployment=deployment))

    result = benchmark.pedantic(build, rounds=1, iterations=1)
    before = [kops for start, kops in result.throughput_series
              if 5_000.0 <= start < 18_000.0]
    after = [kops for start, kops in result.throughput_series
             if start >= 40_000.0]
    mean_before = sum(before) / len(before)
    mean_after = sum(after) / len(after) if after else 0.0
    print(f"\nview (CA,VA) throughput: {mean_before:.3f} kops/s; "
          f"view (CA,JP): {mean_after:.3f} kops/s")
    assert mean_after > 0.0
    # CA-JP RTT (120 ms) > CA-VA RTT (88 ms): throughput drops.
    assert mean_after < mean_before
