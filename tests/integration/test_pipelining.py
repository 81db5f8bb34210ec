"""Leader pipelining: the shared sequencer and the depth-1 golden guard.

The ``PipelinedSequencer`` bounds how many uncommitted slots a leader may
have in flight (``pipeline_depth``).  These tests pin down: the bound
actually binds (and the parked flush resumes), a depth-8 window orders
several times what depth 1 does under saturating open-loop load, the
16-slot default does not bunch a 400 req/s WAN leader's batches at the
start of a round trip, and ``pipeline_depth=1`` reproduces the committed
scenario-smoke golden byte-for-byte for every closed-loop cell.
"""

import json
import pathlib

import pytest

import repro.harness.matrix as matrix_mod
from repro.common.config import ProtocolName, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.harness.configs import paper_config
from repro.harness.runner import ExperimentRunner
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.scenarios.library import get_scenario
from repro.workloads.cohorts import CohortDriver

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: The smoke slice's closed-loop scenarios (the open-loop row is excluded:
#: its commit counts legitimately depend on the pipeline depth).
SMOKE_CLOSED_LOOP = (
    "fault-free",
    "crash-primary",
    "crash-primary-t2",
    "crash-follower",
    "client-primary-partition",
    "byzantine-primary-data-loss",
)


def saturating_workload(num_clients, duration_ms=1_000.0):
    return WorkloadConfig(num_clients=num_clients, request_size=64,
                          duration_ms=duration_ms, warmup_ms=100.0,
                          offered_load_rps=20_000.0, cohorts=2,
                          client_site="CA")


def build_wan_cluster(protocol, depth, workload):
    """A paper-layout cluster on EC2 WAN latencies.

    Pipelining only matters when commits take real network time; the
    near-zero latencies of ``make_cluster`` never fill a window.
    """
    config = paper_config(protocol, t=1, pipeline_depth=depth,
                          batch_timeout_ms=2.0)
    return ExperimentRunner().build(config, workload)


def drive_open_loop(protocol, depth, num_clients=32):
    workload = saturating_workload(num_clients)
    runtime = build_wan_cluster(protocol, depth, workload)
    driver = CohortDriver(runtime, workload)
    driver.run()
    return runtime, driver


class TestSequencerWindow:
    @pytest.mark.parametrize("protocol",
                             [ProtocolName.PAXOS, ProtocolName.XPAXOS])
    def test_depth_bound_binds_and_flush_resumes(self, protocol):
        runtime, driver = drive_open_loop(protocol, depth=1)
        leader = runtime.replica(0)
        # Saturating load against a depth-1 window: the sequencer must
        # have parked at least once, yet ordering kept making progress
        # (the parked flush is pumped on every execution advance).
        assert leader.sequencer.stalls > 0
        assert driver.throughput.total > 0

    @pytest.mark.parametrize("protocol",
                             [ProtocolName.PAXOS, ProtocolName.XPAXOS])
    def test_in_flight_never_exceeds_depth(self, protocol):
        depth = 2
        workload = saturating_workload(32)
        runtime = build_wan_cluster(protocol, depth, workload)
        leader = runtime.replica(0)
        sequencer = leader.sequencer
        observed = []
        inner = leader.propose_batch

        def spy(seqno, batch):
            inner(seqno, batch)
            observed.append(sequencer.in_flight)

        leader.propose_batch = spy
        CohortDriver(runtime, workload).run()
        assert observed
        assert max(observed) <= depth

    @pytest.mark.parametrize("protocol",
                             [ProtocolName.PAXOS, ProtocolName.XPAXOS])
    def test_deeper_pipeline_orders_more(self, protocol):
        # 200 clients: enough outstanding requests to fill eight windows
        # of one batch each (at 32 the client pool binds first and the
        # ratio is ~2).  Both protocols commit 960 vs 120, the depth
        # ratio exactly -- counts, not timings; the floor is half of it.
        _, shallow = drive_open_loop(protocol, depth=1, num_clients=200)
        _, deep = drive_open_loop(protocol, depth=8, num_clients=200)
        assert shallow.throughput.total > 0
        assert deep.throughput.total >= 4 * shallow.throughput.total


class TestDefaultWindow:
    def test_the_default_window_does_not_bunch_a_400_rps_wan_leader(self):
        """XPaxos t = 1 at 400 req/s on the EC2 matrix with modelled
        uplinks and crypto.  With room for a round trip's timer batches,
        a request waits at most one batch timeout and one slot spacing
        (rtt / depth) on top of the round trip.  A window too shallow for
        the round trip fills early in it, and the late arrivals wait out
        the rest: at depth 8 p99 is 124 ms against the bound's 107 ms
        (``docs/workloads.md``, "Why a 16-slot window")."""
        protocol = ProtocolName.XPAXOS
        config = paper_config(protocol, t=1,
                              request_retransmit_ms=20_000.0,
                              view_change_timeout_ms=10_000.0)
        workload = WorkloadConfig(num_clients=200, request_size=1024,
                                  duration_ms=3_000.0, warmup_ms=300.0,
                                  offered_load_rps=400.0, cohorts=4,
                                  client_site="CA")
        runtime = ExperimentRunner(
            latency_factory=lambda seed: LatencyModel.ec2(
                seed=seed, deterministic=True),
            bandwidth_factory=lambda: BandwidthModel(default_rate=4_000.0),
            cost_model=CostModel()).build(config, workload)
        driver = CohortDriver(runtime, workload)
        driver.run()
        rtt = 2 * runtime.network.latency.mean_one_way("CA", "VA")
        spacing = rtt / config.pipeline_depth
        assert driver.latency.summary().p99 \
            <= rtt + spacing + config.batch_timeout_ms + 3.0


class TestDepthOneGolden:
    def test_smoke_slice_matches_committed_golden(self, monkeypatch):
        """pipeline_depth=1 is the pre-pipelining behaviour, byte for byte.

        Every closed-loop cell of the scenario smoke slice must grade and
        count commits exactly as the committed SCENARIO_smoke.json golden
        (which runs at the default depth): the refactor only changes
        behaviour when the window actually binds, and at smoke-slice load
        it never does.
        """
        monkeypatch.setattr(
            matrix_mod, "CELL_TIMEOUTS",
            dict(matrix_mod.CELL_TIMEOUTS, pipeline_depth=1))
        result = matrix_mod.MatrixRunner().run_matrix(
            scenarios=[get_scenario(name) for name in SMOKE_CLOSED_LOOP])
        got = {(c["scenario"], c["protocol"]): c
               for c in json.loads(result.to_json())["cells"]}
        with open(REPO_ROOT / "SCENARIO_smoke.json") as fh:
            golden = {(c["scenario"], c["protocol"]): c
                      for c in json.load(fh)["cells"]
                      if c["scenario"] in SMOKE_CLOSED_LOOP}
        assert got == golden
