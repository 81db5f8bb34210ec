"""Seeded randomized-schedule fuzzing (outside anarchy by construction).

Each case generates a random-but-reproducible fault schedule under the
constraints of :func:`random_schedule`, runs it, and asserts the
unconditional XFT guarantees: total order always, commit progress
whenever the system is healthy.  The constraints keep those guarantees
unconditional (Definition 2):

* no non-crash faults are ever injected, so ``tnc = 0`` and the system
  can never be in anarchy, whatever else happens;
* fault windows are sequential -- at most one replica is crashed or
  isolated at any instant, keeping the run inside the protocol's fault
  threshold ``t``;
* every fault heals before ``horizon_ms - tail_ms``, guaranteeing a
  healthy tail in which the liveness checker demands progress.

Everything is driven by a caller-provided :class:`random.Random`, so a
seed reproduces the schedule bit-for-bit.
"""

import random
from typing import List, Optional, Sequence

import pytest

from repro.common.config import ClusterConfig, ProtocolName, sites_for
from repro.faults.injector import FaultSchedule
from repro.faults.liveness import LivenessChecker
from repro.net.latency import LatencyModel
from tests.conftest import make_harness


def random_schedule(
    rng: random.Random,
    config: ClusterConfig,
    horizon_ms: float,
    victims: Optional[Sequence[int]] = None,
    kinds: Sequence[str] = ("crash", "isolate"),
    start_ms: float = 1_500.0,
    tail_ms: float = 2_000.0,
    min_window_ms: float = 400.0,
    max_window_ms: float = 1_200.0,
    min_gap_ms: float = 600.0,
    max_faults: int = 4,
) -> FaultSchedule:
    """Generate one constrained random schedule.

    Args:
        rng: the seeded source of randomness.
        config: the cluster the schedule will run against.
        horizon_ms: workload duration; all faults heal ``tail_ms`` before
            it.
        victims: replica ids eligible for faults (default: all).
        kinds: fault kinds to draw from (``"crash"``, ``"isolate"``).
        start_ms: earliest fault instant (leave warmup alone).
        tail_ms: guaranteed healthy tail.
        min_window_ms / max_window_ms: fault duration range.
        min_gap_ms: healthy gap between consecutive fault windows.
        max_faults: upper bound on the number of fault windows.

    Returns:
        A :class:`FaultSchedule`; possibly empty when the horizon is too
        short for even one window.
    """
    assert config.n is not None
    if victims is None:
        victims = list(range(config.n))
    if not victims:
        raise ValueError("need at least one eligible victim")
    unknown = set(kinds) - {"crash", "isolate"}
    if unknown:
        raise ValueError(f"unknown fault kinds: {sorted(unknown)}")

    names = [f"r{i}" for i in range(config.n)]
    schedule = FaultSchedule()
    cursor = start_ms
    deadline = horizon_ms - tail_ms
    for _ in range(rng.randint(1, max_faults)):
        window = rng.uniform(min_window_ms, max_window_ms)
        if cursor + window > deadline:
            break
        victim = rng.choice(list(victims))
        kind = rng.choice(list(kinds))
        if kind == "crash":
            schedule.crash_for(cursor, victim, window)
        else:
            others = [n for n in names if n != f"r{victim}"]
            schedule.isolate(cursor, f"r{victim}", others)
            schedule.heal_isolation(cursor + window, f"r{victim}", others)
        cursor += window + rng.uniform(min_gap_ms, 2 * min_gap_ms)
    return schedule


def schedule_signature(schedule: FaultSchedule) -> List[tuple]:
    """A hashable rendering of a schedule, for determinism assertions."""
    return [(e.at_ms, e.kind, e.replica, e.pair) for e in schedule.events]


HORIZON_MS = 6_000.0
XPAXOS_SEEDS = [101, 202, 303, 404, 505]
PBFT_SEEDS = [111, 222, 333]
ZAB_SEEDS = [121, 232, 343]
#: Seeds for the jittered-latency (message-reordering) runs.
REORDER_SEEDS = [17, 29]


def fuzz_run(protocol, seed, passive_only=False,
             kinds=("crash", "isolate"), jitter=0.0, bound_ms=2_000.0):
    latency = None
    if jitter:
        # A widened latency tail makes unrelated links race each other:
        # second-phase votes overtake pre-prepares, commits overtake
        # proposals -- the reordering paths the vote/commit bugfixes
        # guard (still fully deterministic per seed).
        sites = set(sites_for(protocol, 1))
        latency = LatencyModel.uniform(sites, one_way_ms=1.0, seed=seed,
                                       jitter=jitter)
    harness = make_harness(protocol, seed=seed, latency=latency)
    config = harness.runtime.config
    # The passive replica is the last one however large the cluster is.
    victims = [config.n - 1] if passive_only else None
    rng = random.Random(seed)
    schedule = random_schedule(rng, config, HORIZON_MS,
                               victims=victims, kinds=kinds)
    harness.arm(schedule)
    liveness = LivenessChecker(harness.runtime, bound_ms=bound_ms)
    liveness.watch(HORIZON_MS)
    harness.checker.observe_periodically(50.0, HORIZON_MS)
    driver = harness.drive(duration_ms=HORIZON_MS)
    return harness, driver, liveness, schedule


class TestXPaxosFuzz:
    @pytest.mark.parametrize("seed", XPAXOS_SEEDS)
    def test_safety_and_liveness(self, seed):
        harness, driver, liveness, schedule = fuzz_run(
            ProtocolName.XPAXOS, seed)
        # Outside anarchy by construction (tnc = 0 throughout).
        assert not harness.checker.anarchy_observed
        harness.checker.assert_safe()
        liveness.assert_live()
        assert driver.throughput.total > 0


class TestPbftFuzz:
    """Since the baseline view-change work, speculative PBFT survives
    crashes and isolations of *any* single replica -- including the
    primary -- by rotating its active set, so the generator is no longer
    constrained to the passive replica."""

    @pytest.mark.parametrize("seed", PBFT_SEEDS)
    def test_safety_and_liveness(self, seed):
        harness, driver, liveness, schedule = fuzz_run(
            ProtocolName.PBFT, seed)
        assert not harness.checker.anarchy_observed
        harness.checker.assert_safe()
        liveness.assert_live()
        assert driver.throughput.total > 0


class TestZabFuzz:
    @pytest.mark.parametrize("seed", ZAB_SEEDS)
    def test_safety_and_liveness(self, seed):
        harness, driver, liveness, schedule = fuzz_run(
            ProtocolName.ZAB, seed)
        assert not harness.checker.anarchy_observed
        harness.checker.assert_safe()
        liveness.assert_live()
        assert driver.throughput.total > 0


class TestReorderingFuzz:
    """Crash/isolate schedules under a jittered latency model, so that
    messages legitimately overtake each other across links: COMMITs beat
    their PRE-PREPARE (PBFT) and COMMITZABs beat their PROPOSAL (Zab).
    Exercises the (seqno, digest) vote keying and the early-commit buffer
    end to end."""

    @pytest.mark.parametrize("seed", REORDER_SEEDS)
    def test_pbft_reordered_messages_stay_safe(self, seed):
        harness, driver, liveness, _ = fuzz_run(
            ProtocolName.PBFT, seed, jitter=1.5, bound_ms=2_400.0)
        assert not harness.checker.anarchy_observed
        harness.checker.assert_safe()
        liveness.assert_live()
        assert driver.throughput.total > 0

    @pytest.mark.parametrize("seed", REORDER_SEEDS)
    def test_zab_reordered_messages_stay_safe(self, seed):
        harness, driver, liveness, _ = fuzz_run(
            ProtocolName.ZAB, seed, jitter=1.5, bound_ms=2_400.0)
        assert not harness.checker.anarchy_observed
        harness.checker.assert_safe()
        liveness.assert_live()
        assert driver.throughput.total > 0

    def test_reordering_actually_happens(self):
        """The jittered model must actually reorder deliveries (otherwise
        the class above degenerates to the plain fuzz)."""
        sites = set(sites_for(ProtocolName.ZAB, 1))
        latency = LatencyModel.uniform(sites, one_way_ms=1.0, seed=17,
                                       jitter=1.5)
        site_list = sorted(sites)
        draws = [latency.sample_one_way(site_list[0], site_list[1])
                 for _ in range(200)]
        assert max(draws) > min(draws)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        harness = make_harness(ProtocolName.XPAXOS)
        signatures = []
        for _ in range(2):
            rng = random.Random(42)
            schedule = random_schedule(rng, harness.runtime.config,
                                       HORIZON_MS)
            signatures.append(schedule_signature(schedule))
        assert signatures[0] == signatures[1]
        assert signatures[0]  # non-empty for this seed

    def test_same_seed_same_run(self):
        totals = []
        for _ in range(2):
            _, driver, _, _ = fuzz_run(ProtocolName.XPAXOS, 101)
            totals.append(driver.throughput.total)
        assert totals[0] == totals[1]

    def test_different_seeds_differ(self):
        harness = make_harness(ProtocolName.XPAXOS)
        signatures = []
        for seed in (1, 2, 3, 4):
            rng = random.Random(seed)
            schedule = random_schedule(rng, harness.runtime.config,
                                       HORIZON_MS)
            signatures.append(tuple(schedule_signature(schedule)))
        assert len(set(signatures)) > 1


class TestGeneratorConstraints:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_fault_at_a_time_and_healed_tail(self, seed):
        harness = make_harness(ProtocolName.XPAXOS)
        rng = random.Random(seed)
        schedule = random_schedule(rng, harness.runtime.config, HORIZON_MS)
        down = set()
        blocked = set()
        for event in sorted(schedule.events, key=lambda e: e.at_ms):
            if event.kind == "crash":
                assert not down and not blocked
                down.add(event.replica)
            elif event.kind == "recover":
                down.discard(event.replica)
            elif event.kind == "partition":
                assert not down
                blocked.add(event.pair)
            elif event.kind == "heal":
                blocked.discard(event.pair)
        assert not down and not blocked  # everything healed
        assert schedule.end_ms <= HORIZON_MS - 2_000.0

    def test_victim_restriction_respected(self):
        harness = make_harness(ProtocolName.PBFT)
        rng = random.Random(7)
        schedule = random_schedule(rng, harness.runtime.config, HORIZON_MS,
                                   victims=[3], kinds=("crash",))
        for event in schedule.events:
            assert event.kind in ("crash", "recover")
            assert event.replica == 3

    def test_rejects_empty_victims_and_bad_kinds(self):
        harness = make_harness()
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_schedule(rng, harness.runtime.config, HORIZON_MS,
                            victims=[])
        with pytest.raises(ValueError):
            random_schedule(rng, harness.runtime.config, HORIZON_MS,
                            kinds=("crash", "meteor"))
