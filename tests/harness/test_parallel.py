"""The parallel executor layer and the ``--jobs`` merge contract.

Covers the three guarantees ``docs/parallelism.md`` documents: merged
``--jobs N`` output is byte-identical to a sequential run, a crashing
worker fails only its own cell, and ``--jobs 1`` never spawns a pool.
"""

import os
import random

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.harness import parallel
from repro.harness.matrix import ERROR, PASS, run_matrix
from repro.harness.parallel import (
    GlobalRngDrawError,
    guard_global_rng,
    parallel_map,
    resolve_jobs,
)
from repro.harness.runner import Cell, ExperimentRunner, sweep
from repro.net.latency import LatencyModel
from repro.scenarios.scenario import Scenario

PROTOCOLS = [ProtocolName.XPAXOS, ProtocolName.PAXOS]

#: A cheap fault-free cell (full scenarios run for 8 virtual seconds;
#: two of these keep the whole module's matrix runs under a few seconds).
QUICK = Scenario(name="quick-fault-free",
                 description="tiny fault-free cell for executor tests",
                 duration_ms=1_200.0, warmup_ms=100.0, num_clients=2,
                 liveness_bound_ms=1_000.0)


def _boom_schedule(config):
    raise RuntimeError("boom in schedule factory")


#: A cell whose worker raises while building the run.
EXPLODING = Scenario(name="exploding",
                     description="worker-crash probe",
                     schedule=_boom_schedule,
                     duration_ms=1_200.0, warmup_ms=100.0, num_clients=2)


def _global_draw_schedule(config):
    # A deliberate global draw: the guard must error this cell.
    random.random()  # repro: lint-ok[D001]
    from repro.faults.injector import FaultSchedule
    return FaultSchedule()


#: A cell that illegally draws from the module-level random stream.
GLOBAL_DRAW = Scenario(name="global-draw",
                       description="global-RNG audit probe",
                       schedule=_global_draw_schedule,
                       duration_ms=1_200.0, warmup_ms=100.0, num_clients=2)


class TestParallelMap:
    def test_ordered_merge_across_workers(self):
        outcomes = parallel_map(lambda x: x * x, list(range(12)), jobs=4)
        assert [o.index for o in outcomes] == list(range(12))
        assert [o.value for o in outcomes] == [x * x for x in range(12)]
        assert all(o.ok for o in outcomes)

    def test_exception_fails_only_its_task(self):
        def fn(x):
            if x == 2:
                raise ValueError("task two exploded")
            return x

        outcomes = parallel_map(fn, [0, 1, 2, 3], jobs=2)
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert "task two exploded" in outcomes[2].error
        assert [o.value for o in outcomes if o.ok] == [0, 1, 3]

    def test_hard_worker_death_fails_only_its_task(self):
        def fn(x):
            if x == 1:
                os._exit(17)
            return x

        outcomes = parallel_map(fn, [0, 1, 2], jobs=2)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "worker process died" in outcomes[1].error
        assert "17" in outcomes[1].error

    def test_jobs_one_never_touches_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must stay in-process")

        monkeypatch.setattr(parallel, "_pool_map", no_pool)
        outcomes = parallel_map(lambda x: x + 1, [1, 2, 3], jobs=1)
        assert [o.value for o in outcomes] == [2, 3, 4]

    def test_single_task_skips_the_pool_too(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("single task must stay in-process")

        monkeypatch.setattr(parallel, "_pool_map", no_pool)
        outcomes = parallel_map(lambda x: x, ["only"], jobs=8)
        assert outcomes[0].value == "only"

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_guard_rejects_global_rng_draws_inline(self):
        @guard_global_rng
        def dirty(task):
            return random.random()  # repro: lint-ok[D001]

        with pytest.raises(GlobalRngDrawError):
            dirty(None)

    def test_guard_failure_is_recorded_in_worker(self):
        @guard_global_rng
        def dirty(task):
            return random.random()  # repro: lint-ok[D001]

        outcomes = parallel_map(dirty, [0, 1], jobs=2)
        assert not outcomes[0].ok and not outcomes[1].ok
        assert "GlobalRngDrawError" in outcomes[0].error


class TestMatrixJobs:
    def test_jobs4_matrix_json_byte_identical(self):
        # Perturb the inherited global RNG state differently before each
        # run: a cell path that (illegally) consulted it would diverge.
        random.seed(b"sequential-side")  # repro: lint-ok[D001]
        seq = run_matrix(scenarios=[QUICK], protocols=PROTOCOLS, seed=3,
                         jobs=1)
        random.seed(b"parallel-side")  # repro: lint-ok[D001]
        par = run_matrix(scenarios=[QUICK], protocols=PROTOCOLS, seed=3,
                         jobs=4)
        assert seq.to_json() == par.to_json()
        assert [c.status for c in par.cells] == [PASS] * len(PROTOCOLS)
        assert par.format_grid() == seq.format_grid()

    def test_worker_crash_fails_that_cell_only(self):
        result = run_matrix(scenarios=[EXPLODING, QUICK],
                            protocols=PROTOCOLS, jobs=2)
        by_scenario = {}
        for cell in result.cells:
            by_scenario.setdefault(cell.scenario, []).append(cell)
        for cell in by_scenario["exploding"]:
            assert cell.status == ERROR
            assert not cell.ok
            assert "boom in schedule factory" in cell.detail
        for cell in by_scenario["quick-fault-free"]:
            assert cell.status == PASS, cell.detail
        # The error rendering is itself deterministic: the sequential
        # path records the identical matrix.
        seq = run_matrix(scenarios=[EXPLODING, QUICK], protocols=PROTOCOLS,
                         jobs=1)
        assert seq.to_json() == result.to_json()

    def test_global_rng_draw_on_cell_path_is_rejected(self):
        # The seeding audit, enforced at runtime: a cell drawing from the
        # module-level stream errors instead of silently breaking
        # cross-process determinism -- and only that cell is lost.
        result = run_matrix(scenarios=[GLOBAL_DRAW, QUICK],
                            protocols=[ProtocolName.XPAXOS], jobs=2)
        draw_cell, quick_cell = result.cells
        assert draw_cell.status == ERROR
        assert "GlobalRngDrawError" in draw_cell.detail
        assert quick_cell.status == PASS, quick_cell.detail

    def test_matrix_jobs1_stays_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must stay in-process")

        monkeypatch.setattr(parallel, "_pool_map", no_pool)
        result = run_matrix(scenarios=[QUICK],
                            protocols=[ProtocolName.XPAXOS], jobs=1)
        assert result.cells[0].status == PASS


class TestSweepJobs:
    @staticmethod
    def _cells(workloads):
        deployment = ExperimentRunner(
            latency_factory=lambda seed: LatencyModel.uniform(
                ["CA", "VA", "JP"], one_way_ms=1.0, seed=seed))
        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS,
                               delta_ms=50.0, request_retransmit_ms=500.0,
                               view_change_timeout_ms=1_000.0,
                               batch_timeout_ms=2.0)
        return [Cell(config, workload, deployment=deployment, seed=2)
                for workload in workloads]

    def test_parallel_sweep_matches_sequential(self):
        workloads = [WorkloadConfig(num_clients=count, request_size=64,
                                    duration_ms=600.0, warmup_ms=100.0,
                                    seed=count)
                     for count in (1, 2, 3)]
        seq = sweep(self._cells(workloads), jobs=1)
        par = sweep(self._cells(workloads), jobs=3)
        assert seq == par
        assert [r.num_clients for r in par] == [1, 2, 3]

    def test_failed_point_names_itself(self):
        workload = WorkloadConfig(num_clients=1, request_size=64,
                                  duration_ms=600.0, warmup_ms=100.0,
                                  client_site="NOT-A-SITE")
        with pytest.raises(RuntimeError, match="sweep point"):
            sweep(self._cells([workload]), jobs=2)
