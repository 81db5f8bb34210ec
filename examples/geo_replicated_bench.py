#!/usr/bin/env python3
"""Geo-replicated microbenchmark: a miniature Figure 7a.

Sweeps closed-loop clients over the paper's EC2 deployment (Table 3
latencies, Table 4 placement) for XPaxos, Paxos, PBFT and Zyzzyva, printing
the latency-vs-throughput curve for each -- the experiment behind the
paper's headline claim that XFT costs no more than CFT in the WAN.

Run:  python examples/geo_replicated_bench.py
"""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.harness.configs import paper_config
from repro.harness.runner import Cell, ExperimentRunner, run_cell
from repro.net.bandwidth import BandwidthModel

CLIENT_COUNTS = (8, 32, 96)
PROTOCOLS = (ProtocolName.XPAXOS, ProtocolName.PAXOS, ProtocolName.PBFT,
             ProtocolName.ZYZZYVA)


def main() -> None:
    # The EC2 WAN and measured crypto costs, with 4 kB/ms uplinks.
    deployment = ExperimentRunner(
        bandwidth_factory=lambda: BandwidthModel(default_rate=4_000.0))

    print("1/0 microbenchmark (1 kB requests), t = 1, clients in CA\n")
    header = f"{'clients':>8}"
    for protocol in PROTOCOLS:
        header += f" | {protocol.value:>21}"
    print(header)
    print(" " * 8 + " | ".join(
        [""] + [f"{'kops/s':>9} {'lat ms':>11}" for _ in PROTOCOLS]))

    curves = {}
    for protocol in PROTOCOLS:
        config = paper_config(protocol, t=1,
                              request_retransmit_ms=20_000.0,
                              view_change_timeout_ms=10_000.0)
        curves[protocol] = [
            run_cell(Cell(config, WorkloadConfig(
                num_clients=clients, request_size=1024,
                duration_ms=4_000.0, warmup_ms=500.0, client_site="CA"),
                deployment=deployment))
            for clients in CLIENT_COUNTS
        ]

    for index, clients in enumerate(CLIENT_COUNTS):
        row = f"{clients:>8}"
        for protocol in PROTOCOLS:
            result = curves[protocol][index]
            row += (f" | {result.throughput_kops:9.3f} "
                    f"{result.mean_latency_ms:11.1f}")
        print(row)

    print("\npeaks:")
    for protocol in PROTOCOLS:
        best = max(r.throughput_kops for r in curves[protocol])
        cpu = max(r.cpu_percent_most_loaded for r in curves[protocol])
        print(f"  {protocol.value:>8}: {best:6.3f} kops/s "
              f"(primary CPU {cpu:5.1f}%)")

    xpaxos = max(r.throughput_kops for r in curves[ProtocolName.XPAXOS])
    pbft = max(r.throughput_kops for r in curves[ProtocolName.PBFT])
    print(f"\nXPaxos / PBFT peak ratio: {xpaxos / pbft:.2f}x "
          "(the paper reports a similar advantage on EC2)")


if __name__ == "__main__":
    main()
