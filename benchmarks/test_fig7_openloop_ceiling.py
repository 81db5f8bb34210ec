"""Open-loop extension of the Figure 7 sweeps: each protocol's ceiling.

Closed-loop sweeps (Figures 7a-c) cap the offered load at
``num_clients / latency`` -- with the simulated client counts that is a
few kops/s at most, far below what the leader pipeline can order.  This
benchmark drives every protocol with the open-loop cohort engine at
offered loads two orders of magnitude past the closed-loop ceiling and
asserts the defining open-loop signature: measured throughput stops
tracking offered load and *plateaus* at the protocol's actual capacity.

The five protocol runs are independent deterministic simulations, so
``REPRO_JOBS=N`` farms them to worker processes (0 = one per core);
results are merged in protocol order and identical to a serial run.
"""

import os

from repro.common.config import ProtocolName, WorkloadConfig
from repro.harness.configs import paper_config
from repro.harness.parallel import guard_global_rng, parallel_map

from conftest import WARMUP_MS, wan_runner

PROTOCOLS = (ProtocolName.XPAXOS, ProtocolName.PAXOS, ProtocolName.PBFT,
             ProtocolName.ZYZZYVA, ProtocolName.ZAB)

#: Worker processes for the per-protocol runs (a pytest benchmark has no
#: natural CLI flag, so the knob is an environment variable).
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

#: Shorter than RUN_MS: past saturation every extra millisecond only
#: grows the backlog without moving the measured plateau.
OPEN_RUN_MS = 1_000.0

#: Channel-pool size: enough protocol clients that a full window of full
#: batches (the default 16 x 20 = 320 requests) never starves for
#: in-flight requests, so the plateau is the protocol's, not the pool's.
CHANNELS = 400

#: Offered-load multipliers over the measured closed-loop ceiling.  The
#: first satisfies the >= 100x headroom claim; the second confirms that
#: throughput no longer follows offered load (the plateau).
MULTIPLIERS = (100.0, 250.0)


def _closed_ceiling(runner, config) -> float:
    """Closed-loop throughput at the sweep's top client count (kops/s)."""
    workload = WorkloadConfig(num_clients=96, request_size=1024,
                              duration_ms=OPEN_RUN_MS,
                              warmup_ms=WARMUP_MS, client_site="CA")
    return runner.run_point(config, workload).throughput_kops


def _open_points(runner, config, ceiling_kops):
    base = WorkloadConfig(num_clients=CHANNELS, request_size=1024,
                          duration_ms=OPEN_RUN_MS, warmup_ms=WARMUP_MS,
                          client_site="CA", cohorts=4)
    rates = [ceiling_kops * 1_000.0 * m for m in MULTIPLIERS]
    return runner.sweep_offered_load(config, rates, base)


@guard_global_rng
def _protocol_run(protocol):
    """Closed ceiling + open-loop points for one protocol (one worker)."""
    runner = wan_runner()
    config = paper_config(protocol, t=1)
    ceiling = _closed_ceiling(runner, config)
    return ceiling, _open_points(runner, config, ceiling)


def test_fig7_openloop_ceiling(benchmark):
    def build():
        outcomes = parallel_map(_protocol_run, PROTOCOLS, jobs=JOBS)
        out = {}
        for protocol, outcome in zip(PROTOCOLS, outcomes):
            assert outcome.ok, (protocol.value, outcome.error)
            out[protocol.value] = outcome.value
        return out

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== Open-loop ceiling, 1/0 benchmark, t = 1 ===")
    print(f"{'protocol':>8} {'closed kops':>12} "
          f"{'offered kops':>13} {'open kops':>10} {'saturated':>10}")
    for name, (ceiling, points) in results.items():
        for point in points:
            r = point.result
            print(f"{name:>8} {ceiling:12.3f} {r.offered_load_kops:13.1f} "
                  f"{r.throughput_kops:10.3f} "
                  f"{'yes' if r.saturated else 'no':>10}")

    for name, (ceiling, points) in results.items():
        first, second = (p.result for p in points)
        # >= 100x the closed-loop ceiling actually arrived at the cluster.
        assert first.offered_load_kops >= 100.0 * ceiling * 0.9, name
        # Offered load outran service capacity: requests are queued.
        assert first.saturated and second.saturated, name
        # The plateau: 2.5x more offered load, same measured throughput.
        assert second.throughput_kops <= 1.25 * first.throughput_kops, name
        assert second.throughput_kops >= 0.75 * first.throughput_kops, name
        # The plateau sits above the closed-loop ceiling -- open-loop load
        # plus pipelining is what reveals the protocol's real capacity.
        assert first.throughput_kops >= ceiling * 0.9, name
