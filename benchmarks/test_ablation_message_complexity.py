"""Ablation: per-operation message complexity of each protocol.

Section 4.1 claims XPaxos's common case has "roughly speaking, the message
pattern and complexity of communication among replicas of state-of-the-art
CFT protocols".  We count actual messages per committed operation with the
tracer and compare: XPaxos must sit with Paxos/Zab, well below PBFT's
all-to-all and Zyzzyva's all-replica fan-out.
"""

from repro.common.config import ProtocolName, WorkloadConfig
from repro.harness.configs import paper_config
from repro.harness.tracing import MessageTracer

from conftest import wan_runner

#: Message kinds that constitute each protocol's replica-to-replica
#: ordering traffic (replies/requests excluded: identical everywhere).
ORDERING_KINDS = {
    "xpaxos": {"Prepare", "CommitVote", "FastPrepare", "FastCommit"},
    "paxos": {"Accept", "Accepted"},
    "pbft": {"PrePrepare", "CommitMsg"},
    "zyzzyva": {"OrderReq"},
    "zab": {"Proposal", "Ack", "CommitZab"},
}


def run_traced(protocol: ProtocolName):
    runner = wan_runner()
    config = paper_config(protocol)
    workload = WorkloadConfig(num_clients=32, request_size=1024,
                              duration_ms=3_000.0, warmup_ms=0.0,
                              client_site="CA")
    runtime = runner.build(config, workload)
    tracer = MessageTracer.attach(runtime.network)
    from repro.workloads.clients import ClosedLoopDriver

    driver = ClosedLoopDriver(runtime, workload)
    driver.run()
    kinds = ORDERING_KINDS[protocol.value]
    ordering = sum(1 for e in tracer.events if e.kind in kinds)
    batches = max(1, max(r.commit_log.end for r in runtime.replicas))
    return {
        "ops": driver.throughput.total,
        "ordering_messages": ordering,
        "batches": batches,
        "per_batch": ordering / batches,
    }


def test_message_complexity(benchmark):
    def build():
        return {p.value: run_traced(p) for p in ProtocolName}

    stats = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== ordering messages per batch (t = 1) ===")
    print(f"{'protocol':>9} {'ops':>7} {'msgs':>7} {'batches':>8} "
          f"{'msgs/batch':>11}")
    for name, row in stats.items():
        print(f"{name:>9} {row['ops']:>7} {row['ordering_messages']:>7} "
              f"{row['batches']:>8} {row['per_batch']:>11.2f}")

    # XPaxos t=1 fast path: 2 messages per batch (FastPrepare+FastCommit),
    # the same as Paxos's Accept+Accepted... plus Paxos's Learn is lazy.
    assert stats["xpaxos"]["per_batch"] <= 2.5
    assert abs(stats["xpaxos"]["per_batch"]
               - stats["paxos"]["per_batch"]) < 1.0
    # PBFT's two phases over 2t+1 replicas cost strictly more.
    assert stats["pbft"]["per_batch"] > 2.0 * stats["xpaxos"]["per_batch"]
    # Zab: proposal to 2t + 2t acks + 2t commits = ~6 per batch at t=1.
    assert stats["zab"]["per_batch"] > stats["xpaxos"]["per_batch"]
