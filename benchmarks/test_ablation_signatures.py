"""Ablation: the price of digital signatures (why Figure 8 looks the way
it does).

XFT *requires* signatures in the common case -- commit logs must be
transferable proofs during view changes (Section 4.2); MAC vectors would
let a faulty replica equivocate.  This ablation quantifies what that
necessity costs by re-running XPaxos with the signature CPU price of a MAC
(a hypothetical, protocol-unsafe configuration) and with free crypto.
"""

from repro.common.config import ProtocolName
from repro.crypto.costs import CostModel
from repro.harness.configs import paper_config
from repro.harness.runner import Cell, run_cell

from conftest import one_zero, wan_runner

#: sign/verify priced like HMACs -- what CFT/BFT MAC-based protocols pay.
MAC_PRICED = CostModel(sign_us=2.0, verify_us=2.0)


def test_signature_cost_ablation(benchmark):
    def build():
        results = {}
        for label, cost_model in (("rsa1024", CostModel()),
                                  ("mac-priced", MAC_PRICED),
                                  ("free", CostModel.free())):
            deployment = wan_runner(cost_model=cost_model)
            config = paper_config(ProtocolName.XPAXOS)
            results[label] = run_cell(Cell(config, one_zero(96),
                                           deployment=deployment))
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== ablation: signature CPU price (XPaxos, 1/0) ===")
    print(f"{'crypto':>11} {'kops/s':>9} {'cpu %':>8}")
    for label, result in results.items():
        print(f"{label:>11} {result.throughput_kops:9.3f} "
              f"{result.cpu_percent_most_loaded:8.1f}")

    # The CPU gap is the signature premium; with WAN latency dominating,
    # throughput is essentially unaffected (the paper's observation that
    # CPU "remains very reasonable" and does not cap XPaxos in the WAN).
    rsa = results["rsa1024"]
    mac = results["mac-priced"]
    assert rsa.cpu_percent_most_loaded > 5 * mac.cpu_percent_most_loaded
    assert rsa.throughput_kops >= 0.9 * mac.throughput_kops
    # Sanity: CPU stays under half the 8 cores, as in the paper.
    assert rsa.cpu_percent_most_loaded < 400.0
