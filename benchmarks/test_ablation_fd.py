"""Ablation: the fault-detection mechanism's cost (Section 4.4).

FD adds prepare logs to view-change messages plus one VC-CONFIRM round.
It must not measurably slow the common case, and its view-change overhead
is one extra active-to-active round trip.
"""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.faults.injector import FaultSchedule
from repro.harness.configs import paper_config
from repro.harness.runner import Cell, run_cell

from conftest import one_zero, wan_runner


def test_fd_common_case_overhead(benchmark):
    def build():
        results = {}
        for use_fd in (False, True):
            deployment = wan_runner()
            config = paper_config(ProtocolName.XPAXOS,
                                  use_fault_detection=use_fd)
            results[use_fd] = run_cell(Cell(config, one_zero(64),
                                            deployment=deployment))
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    print("\n=== ablation: fault detection, fault-free common case ===")
    for use_fd, result in results.items():
        print(f"FD={str(use_fd):>5}: {result.throughput_kops:.3f} kops/s, "
              f"{result.mean_latency_ms:.1f} ms")
    # FD is free in the common case (it only changes view changes).
    assert results[True].throughput_kops >= \
        0.95 * results[False].throughput_kops
    assert results[True].mean_latency_ms <= \
        1.05 * results[False].mean_latency_ms


def test_fd_view_change_overhead(benchmark):
    def build():
        results = {}
        for use_fd in (False, True):
            deployment = wan_runner()
            config = paper_config(
                ProtocolName.XPAXOS,
                delta_ms=1_250.0,
                request_retransmit_ms=2_500.0,
                view_change_timeout_ms=10_000.0,
                use_fault_detection=use_fd)
            workload = WorkloadConfig(num_clients=32, request_size=1024,
                                      duration_ms=40_000.0,
                                      warmup_ms=2_000.0, client_site="CA")
            schedule = FaultSchedule().crash_for(15_000.0, 1, 5_000.0)
            results[use_fd] = run_cell(Cell(config, workload, schedule,
                                            deployment=deployment))
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    print("\n=== ablation: fault detection, view-change duration ===")
    for use_fd, result in results.items():
        print(f"FD={str(use_fd):>5}: longest gap "
              f"{result.longest_gap_ms() / 1000.0:.1f}s, "
              f"committed {result.committed}")
    # The VC-CONFIRM round costs at most ~1 WAN round trip extra; both
    # configurations stay under the paper's 10 s recovery bound.
    assert results[True].longest_gap_ms() < 10_000.0
    assert results[False].longest_gap_ms() < 10_000.0
    assert results[True].longest_gap_ms() <= \
        results[False].longest_gap_ms() + 1_000.0
