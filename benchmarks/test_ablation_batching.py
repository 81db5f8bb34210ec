"""Ablation: batch size B (the paper fixes B = 20, Section 5.1.2).

Batching amortizes the primary's per-slot signature and the per-slot WAN
message; larger batches raise peak throughput until latency suffers.
"""

from repro.common.config import ProtocolName
from repro.harness.configs import paper_config

from conftest import one_zero, wan_runner

BATCH_SIZES = (1, 5, 20, 80)
CLIENTS = 96

#: Deep enough that every closed-loop client can have its request in an
#: in-flight slot even at B = 1 -- the ablation isolates the batching
#: knob, so the pipeline-depth window must never be the binding limit.
PIPELINE_DEPTH = 2 * CLIENTS


def test_batching_ablation(benchmark):
    def build():
        results = {}
        for batch_size in BATCH_SIZES:
            runner = wan_runner()
            config = paper_config(ProtocolName.XPAXOS,
                                  batch_size=batch_size,
                                  pipeline_depth=PIPELINE_DEPTH)
            results[batch_size] = runner.run_point(config,
                                                   one_zero(CLIENTS))
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== ablation: batch size (XPaxos, 1/0, 96 clients) ===")
    print(f"{'B':>4} {'kops/s':>9} {'lat ms':>9} {'cpu %':>7}")
    for batch_size, result in results.items():
        print(f"{batch_size:>4} {result.throughput_kops:9.3f} "
              f"{result.mean_latency_ms:9.1f} "
              f"{result.cpu_percent_most_loaded:7.1f}")

    # The paper batches "to improve the throughput of cryptographic
    # operations" (Section 4.5): the measurable effect on this substrate
    # (where closed-loop throughput is WAN-latency-bound, not CPU-bound)
    # is the collapse of per-op signature cost at the primary.
    cpu_per_op_1 = (results[1].cpu_percent_most_loaded
                    / max(results[1].throughput_kops, 1e-9))
    cpu_per_op_20 = (results[20].cpu_percent_most_loaded
                     / max(results[20].throughput_kops, 1e-9))
    assert cpu_per_op_20 < 0.2 * cpu_per_op_1
    # The latency cost of batching stays bounded at the paper's B = 20
    # (under one extra round-trip equivalent), and grows with B.
    assert results[20].mean_latency_ms < 2.0 * results[1].mean_latency_ms
    assert results[1].mean_latency_ms < results[20].mean_latency_ms \
        < results[80].mean_latency_ms + 50.0
    # Throughput is within the latency-bound envelope at every B.
    for result in results.values():
        assert result.throughput_kops > 0.5 * results[1].throughput_kops
