"""Figure 10: latency vs throughput for the ZooKeeper application (t = 1).

The coordination service (repro.zk) replaces ZooKeeper 3.4.6; each protocol
replicates it (the paper's integration "replaces the Zab protocol"), and
clients issue 1 kB writes in a closed loop from the primary's region.

Expected shape (Section 5.5): Paxos and XPaxos clearly outperform the BFT
protocols; XPaxos is close to Paxos; and -- the paper's surprise -- XPaxos
beats native ZooKeeper's Zab, because the WAN bottleneck is the leader's
uplink bandwidth and the Zab leader ships every request to 2t replicas
whereas the XPaxos primary ships to only t followers.
"""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.harness.configs import paper_config
from repro.workloads.clients import make_driver
from repro.zk.service import CoordinationService, zk_write_op

from conftest import RUN_MS, WARMUP_MS, wan_runner

#: A leaner uplink than the microbenchmarks: Figure 10's phenomenon is the
#: saturation of the leader's uplink, so the sweep must reach it.
ZK_UPLINK = 2_000.0
ZK_CLIENTS = (16, 64, 192, 512)

PROTOCOLS = (ProtocolName.XPAXOS, ProtocolName.PAXOS, ProtocolName.PBFT,
             ProtocolName.ZYZZYVA, ProtocolName.ZAB)


def zk_workload(num_clients: int) -> WorkloadConfig:
    return WorkloadConfig(num_clients=num_clients, request_size=1024,
                          duration_ms=RUN_MS, warmup_ms=WARMUP_MS,
                          client_site="CA")


def run_zk_point(runner, protocol, num_clients):
    """One Figure 10 point: every client writes its own znode with
    :func:`zk_write_op`.  ``run_point`` would drive the null service's
    counter ops, which the coordination service refuses as bad
    arguments."""
    workload = zk_workload(num_clients)
    runtime = runner.build(paper_config(protocol), workload)
    driver = make_driver(runtime, workload, zk_write_op)
    driver.run()
    assert_znodes_written(runtime)
    return driver


def assert_znodes_written(runtime):
    """Every replica that executed holds ``/bench/c<i>`` for each client
    that committed: the writes reached the replicated service.  At least
    the common case's replicas executed; speculative PBFT's passive one
    executes nothing while the primary stays up."""
    writers = [c.client_id for c in runtime.clients if c.completions]
    executed = [r for r in runtime.replicas if r.ex]
    assert writers and len(executed) >= runtime.config.active_count
    for replica in executed:
        missing = [i for i in writers
                   if not replica.app.tree.exists(f"/bench/c{i}")]
        assert not missing, (replica.replica_id, missing)


def test_fig10(benchmark):
    def build():
        curves = {}
        for protocol in PROTOCOLS:
            runner = wan_runner(uplink=ZK_UPLINK,
                                app_factory=CoordinationService)
            curves[protocol.value] = [
                run_zk_point(runner, protocol, clients)
                for clients in ZK_CLIENTS]
        return curves

    curves = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== Figure 10: ZooKeeper macro-benchmark (1 kB writes) ===")
    print(f"{'clients':>8}", end="")
    for name in curves:
        print(f" | {name:>19}", end="")
    print()
    for index, clients in enumerate(ZK_CLIENTS):
        print(f"{clients:>8}", end="")
        for name, drivers in curves.items():
            driver = drivers[index]
            latency = driver.mean_latency_ms()
            lat = f"{latency:8.1f}" if latency is not None else "     n/a"
            print(f" | {driver.mean_throughput_kops():9.3f} {lat}", end="")
        print()

    peaks = {name: max(d.mean_throughput_kops() for d in drivers)
             for name, drivers in curves.items()}
    print(f"peaks (kops/s): {peaks}")

    # Shape 1: XPaxos close to Paxos.
    assert peaks["xpaxos"] >= 0.7 * peaks["paxos"]
    # Shape 2: XPaxos and Paxos clearly outperform the BFT protocols.
    assert peaks["xpaxos"] > 1.2 * peaks["pbft"]
    assert peaks["xpaxos"] > 1.2 * peaks["zyzzyva"]
    # Shape 3 (the paper's surprise): XPaxos peaks above native Zab --
    # the Zab leader ships to 2t replicas, the XPaxos primary to t.
    assert peaks["xpaxos"] > 1.15 * peaks["zab"]


def test_fig10_leader_bandwidth_explanation(benchmark):
    """Quantify the mechanism behind shape 3: bytes pushed through the
    leader's uplink per committed request."""

    def build():
        stats = {}
        for protocol in (ProtocolName.XPAXOS, ProtocolName.ZAB):
            from repro.net.bandwidth import BandwidthModel

            bandwidth = BandwidthModel(default_rate=ZK_UPLINK)
            runner = wan_runner(uplink=ZK_UPLINK,
                                app_factory=CoordinationService)
            runner.bandwidth_factory = lambda b=bandwidth: b
            driver = run_zk_point(runner, protocol, 64)
            stats[protocol.value] = (bandwidth.bytes_sent("r0"),
                                     driver.throughput.total)
        return stats

    stats = benchmark.pedantic(build, rounds=1, iterations=1)
    per_op = {name: sent / max(committed, 1)
              for name, (sent, committed) in stats.items()}
    print(f"\nleader uplink bytes per committed op: {per_op}")
    assert per_op["zab"] > 1.5 * per_op["xpaxos"]
