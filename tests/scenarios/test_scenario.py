"""Tests for the Scenario dataclass and schedule composition helpers."""

import pytest

from repro.common.config import ClusterConfig, ProtocolName
from repro.faults.injector import FaultSchedule
from repro.scenarios import Scenario, builtin_scenarios, get_scenario


class TestScenario:
    def test_defaults_apply_to_every_protocol(self):
        scenario = Scenario(name="x", description="d")
        assert all(scenario.applies_to(p) for p in ProtocolName)

    def test_scoped_scenario_skips_others(self):
        scenario = Scenario(
            name="x", description="d",
            protocols=frozenset({ProtocolName.XPAXOS}))
        assert scenario.applies_to(ProtocolName.XPAXOS)
        assert not scenario.applies_to(ProtocolName.PBFT)

    def test_adversaries_require_protocol_scope(self):
        with pytest.raises(ValueError):
            Scenario(name="x", description="d",
                     adversaries={0: lambda: None})

    def test_adversaries_rejected_on_incapable_protocols(self):
        """On protocols without a byzantine hook the adversary would be
        silently inert -- misgrading the cell -- so it is a spec error."""
        with pytest.raises(ValueError):
            Scenario(name="x", description="d",
                     protocols=frozenset({ProtocolName.PAXOS}),
                     adversaries={0: lambda: None})

    def test_adversaries_accepted_on_xpaxos_scope(self):
        scenario = Scenario(name="x", description="d",
                            protocols=frozenset({ProtocolName.XPAXOS}),
                            adversaries={0: lambda: None})
        assert scenario.applies_to(ProtocolName.XPAXOS)

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            Scenario(name="x", description="d",
                     duration_ms=100.0, warmup_ms=100.0)

    def test_workload_kwargs_round_trip(self):
        scenario = Scenario(name="x", description="d", num_clients=7,
                            request_size=256, duration_ms=5_000.0,
                            warmup_ms=250.0)
        kwargs = scenario.workload_kwargs()
        assert kwargs == dict(num_clients=7, request_size=256,
                              duration_ms=5_000.0, warmup_ms=250.0)


class TestLibrary:
    def test_at_least_ten_scenarios(self):
        assert len(builtin_scenarios()) >= 10

    def test_names_unique(self):
        names = [s.name for s in builtin_scenarios()]
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        assert get_scenario("fault-free").name == "fault-free"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="fault-free"):
            get_scenario("no-such-scenario")

    def test_anarchy_scenarios_declared(self):
        anarchy = [s for s in builtin_scenarios() if s.expect_anarchy]
        assert len(anarchy) >= 2
        # Anarchy needs a non-crash fault, which only XPaxos models.
        for scenario in anarchy:
            assert scenario.protocols == frozenset({ProtocolName.XPAXOS})
            assert scenario.adversaries

    def test_schedules_build_for_every_in_scope_protocol(self):
        for scenario in builtin_scenarios():
            for protocol in ProtocolName:
                if not scenario.applies_to(protocol):
                    continue
                config = ClusterConfig(t=1, protocol=protocol)
                schedule = scenario.schedule(config)
                assert schedule.end_ms < scenario.duration_ms

    def test_schedules_reference_only_existing_replicas(self):
        for scenario in builtin_scenarios():
            for protocol in ProtocolName:
                if not scenario.applies_to(protocol):
                    continue
                config = ClusterConfig(t=1, protocol=protocol)
                assert config.n is not None
                for event in scenario.schedule(config).events:
                    if event.replica is not None:
                        assert 0 <= event.replica < config.n


class TestScheduleComposition:
    def test_merge_sorts_by_time(self):
        a = FaultSchedule().crash(500.0, 0)
        b = FaultSchedule().recover(100.0, 1)
        merged = a + b
        assert [e.at_ms for e in merged.events] == [100.0, 500.0]
        assert len(a.events) == 1 and len(b.events) == 1

    def test_rolling_crashes_one_at_a_time(self):
        schedule = FaultSchedule.rolling_crashes(
            [0, 1, 2], start_ms=1_000.0, interval_ms=500.0,
            downtime_ms=400.0)
        crashes = [e for e in schedule.events if e.kind == "crash"]
        recovers = [e for e in schedule.events if e.kind == "recover"]
        assert [e.replica for e in crashes] == [0, 1, 2]
        # Each recovery precedes the next crash.
        for recover, crash in zip(recovers, crashes[1:]):
            assert recover.at_ms <= crash.at_ms

    def test_flapping_partition_alternates(self):
        schedule = FaultSchedule.flapping_partition(
            "r0", "r1", start_ms=0.0, period_ms=100.0, flaps=3)
        kinds = [e.kind for e in schedule.events]
        assert kinds == ["partition", "heal"] * 3
        assert schedule.end_ms == 250.0

    def test_flapping_rejects_bad_duty(self):
        with pytest.raises(ValueError):
            FaultSchedule.flapping_partition("a", "b", 0.0, 100.0, 1,
                                             duty=1.5)

    def test_isolate_and_heal_are_symmetric(self):
        schedule = (FaultSchedule()
                    .isolate(10.0, "r0", ["r1", "r2"])
                    .heal_isolation(20.0, "r0", ["r1", "r2"]))
        pairs = [(e.kind, e.pair) for e in schedule.events]
        assert (("partition", ("r0", "r1")) in pairs
                and ("heal", ("r0", "r2")) in pairs)

    def test_suspect_event_requires_replica(self):
        schedule = FaultSchedule().suspect(50.0, 1)
        assert schedule.events[0].kind == "suspect"
        assert schedule.events[0].replica == 1

    def test_end_ms_empty_schedule(self):
        assert FaultSchedule().end_ms == 0.0
