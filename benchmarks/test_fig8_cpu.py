"""Figure 8: CPU usage of the most-loaded node (the primary) for the 1/0
and 4/0 microbenchmarks.

Expected shape (Section 5.3): XPaxos uses more CPU than the other protocols
(digital signatures vs MACs), yet never more than half of the 8 cores
(<= 400% in top units); CPU usage per op is higher for 1/0 than 4/0 at the
same byte rate (more messages per time unit); and despite the higher CPU,
XPaxos sustains higher throughput than the BFT protocols.
"""

from repro.common.config import ProtocolName
from repro.harness.configs import paper_config
from repro.harness.runner import Cell, run_cell

from conftest import SWEEP_CLIENTS, one_zero, four_zero, wan_runner

PROTOCOLS = (ProtocolName.XPAXOS, ProtocolName.PAXOS, ProtocolName.PBFT,
             ProtocolName.ZYZZYVA)


def run_cpu_points(workload_factory):
    deployment = wan_runner()
    points = {}
    for protocol in PROTOCOLS:
        config = paper_config(protocol)
        result = run_cell(Cell(config,
                               workload_factory(max(SWEEP_CLIENTS)),
                               deployment=deployment))
        points[protocol.value] = result
    return points


def test_fig8(benchmark):
    def build():
        return {
            "1/0": run_cpu_points(one_zero),
            "4/0": run_cpu_points(four_zero),
        }

    data = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== Figure 8: CPU usage at peak throughput ===")
    print(f"{'bench':>6} {'protocol':>9} {'kops/s':>9} {'CPU %':>8}")
    for bench, points in data.items():
        for name, result in points.items():
            print(f"{bench:>6} {name:>9} "
                  f"{result.throughput_kops:9.3f} "
                  f"{result.cpu_percent_most_loaded:8.1f}")

    for bench, points in data.items():
        xpaxos = points["xpaxos"]
        paxos = points["paxos"]
        # Shape 1: XPaxos burns more CPU per committed op than Paxos
        # (signatures vs MACs).
        xpaxos_per_op = (xpaxos.cpu_percent_most_loaded
                         / max(xpaxos.throughput_kops, 1e-9))
        paxos_per_op = (paxos.cpu_percent_most_loaded
                        / max(paxos.throughput_kops, 1e-9))
        assert xpaxos_per_op > 2.0 * paxos_per_op, bench
        # Shape 2: never more than half the 8 cores.
        assert xpaxos.cpu_percent_most_loaded < 400.0, bench
        # Shape 3: XPaxos still beats the BFT protocols on throughput.
        assert xpaxos.throughput_kops > points["pbft"].throughput_kops
        assert xpaxos.throughput_kops > points["zyzzyva"].throughput_kops

    # Shape 4: per-op CPU is dominated by per-message crypto, so the 4/0
    # benchmark (fewer ops for the same byte volume) shows no *higher*
    # per-op signature cost than 1/0 for XPaxos.
    one = data["1/0"]["xpaxos"]
    four = data["4/0"]["xpaxos"]
    assert one.throughput_kops >= four.throughput_kops
