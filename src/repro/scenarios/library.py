"""The built-in scenario library.

Scenario design notes
---------------------

Cells run on a uniform-latency network with the test suite's fast
timeouts, so every schedule below is phrased in a few virtual seconds.
Protocol scoping follows what the paper (and this repo) actually claims:

* **Every protocol** now implements a leader-change path -- XPaxos and
  Paxos since the start, and the speculative-PBFT / Zyzzyva / Zab
  baselines through the shared election layer in ``protocols/base`` --
  so the crash, quorum-blackout and partition scenarios are in scope for
  all five and grade *liveness*: commit progress must resume within the
  bound once the system is healthy again.
* The paper's Figure 6/9 point survives as a *quantitative* difference
  (how much each baseline's transition costs), not a scoping one.
* **Byzantine and anarchy scenarios** need the non-crash adversary, which
  only XPaxos models.

Every scenario keeps all injected faults clear of the final two seconds,
so the liveness checker always gets a healthy tail window in which
progress must resume.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.common.config import ClusterConfig, ProtocolName
from repro.faults.adversary import DataLossAdversary, EquivocatingAdversary
from repro.faults.injector import FaultSchedule
from repro.scenarios.scenario import Scenario

#: All five protocols implement leader failover since the baseline
#: view-change work; kept as a named scope for readability.
FAILOVER = frozenset(ProtocolName)

#: Protocols that tolerate follower-side faults (now: all of them --
#: PBFT/Zyzzyva rotate their active set away from the faulty replica).
FOLLOWER_TOLERANT = frozenset(ProtocolName)

#: Protocols whose last replica is outside the common case (t = 1).
HAS_PASSIVE = frozenset({ProtocolName.XPAXOS, ProtocolName.PAXOS,
                         ProtocolName.ZAB, ProtocolName.PBFT})

#: The non-crash adversary is an XPaxos concept.
XPAXOS_ONLY = frozenset({ProtocolName.XPAXOS})


def _client_names(num_clients: int) -> List[str]:
    return [f"c{i}" for i in range(num_clients)]


def _no_faults(config: ClusterConfig) -> FaultSchedule:
    return FaultSchedule()


def _crash_primary(config: ClusterConfig) -> FaultSchedule:
    return FaultSchedule().crash_for(2_500.0, 0, 1_200.0)


def _crash_follower(config: ClusterConfig) -> FaultSchedule:
    return FaultSchedule().crash_for(2_500.0, 1, 1_200.0)


def _crash_passive(config: ClusterConfig) -> FaultSchedule:
    assert config.n is not None
    return FaultSchedule().crash_for(2_500.0, config.n - 1, 1_200.0)


def _rolling_crashes(config: ClusterConfig) -> FaultSchedule:
    # One replica down at a time, Figure 9 style, across the whole cluster.
    assert config.n is not None
    return FaultSchedule.rolling_crashes(
        replicas=list(range(min(config.n, 3))), start_ms=2_000.0,
        interval_ms=1_300.0, downtime_ms=900.0)


def _quorum_blackout(config: ClusterConfig) -> FaultSchedule:
    # Lose the majority (both non-primary CFT replicas) for one window:
    # no protocol can commit during it; progress must resume afterwards.
    return (FaultSchedule()
            .crash_for(2_500.0, 1, 1_500.0)
            .crash_for(2_500.0, 2, 1_500.0))


def _follower_isolated(config: ClusterConfig) -> FaultSchedule:
    assert config.n is not None
    others = [f"r{i}" for i in range(config.n) if i != 1]
    return (FaultSchedule()
            .isolate(2_500.0, "r1", others)
            .heal_isolation(4_500.0, "r1", others))


#: Client count of the client-primary-partition scenario; the schedule
#: below must sever *every* client, so the workload and the schedule
#: share this constant (the schedule factory only sees ClusterConfig).
_CLIENT_PARTITION_CLIENTS = 3


def _asymmetric_client_partition(config: ClusterConfig) -> FaultSchedule:
    # Clients lose the primary while the replicas stay fully connected --
    # asymmetric in which *layer* of the system the fault hits.  Clients
    # fall back to retransmission; no protocol state is lost.
    schedule = FaultSchedule()
    for client in _client_names(_CLIENT_PARTITION_CLIENTS):
        schedule.partition(2_500.0, "r0", client)
        schedule.heal(4_500.0, "r0", client)
    return schedule


def _flapping_partition(config: ClusterConfig) -> FaultSchedule:
    return FaultSchedule.flapping_partition(
        "r0", "r1", start_ms=2_500.0, period_ms=800.0, flaps=3, duty=0.5)


def _suspect_follower(config: ClusterConfig) -> FaultSchedule:
    # A view change with zero crash faults: replica 1 suspects the current
    # view (outside anarchy -- tnc <= t and tc = tp = 0 throughout).
    return FaultSchedule().suspect(3_000.0, 1)


def _crash_two_followers(config: ClusterConfig) -> FaultSchedule:
    # Two overlapping follower crashes: within the fault threshold only
    # at t = 2 (the scenario pins t via config_overrides).
    return (FaultSchedule()
            .crash_for(2_500.0, 1, 1_200.0)
            .crash_for(3_000.0, 2, 1_200.0))


def _byz_plus_crash(config: ClusterConfig) -> FaultSchedule:
    return FaultSchedule().crash_for(2_500.0, 1, 1_500.0)


def _byz_plus_partition(config: ClusterConfig) -> FaultSchedule:
    assert config.n is not None
    others = [f"r{i}" for i in range(config.n) if i != 1]
    return (FaultSchedule()
            .isolate(2_500.0, "r1", others)
            .suspect(3_000.0, 2)
            .heal_isolation(4_500.0, "r1", others))


@functools.lru_cache(maxsize=None)
def builtin_scenarios() -> Tuple[Scenario, ...]:
    """The standing conformance library (order is the report order),
    built once: every lookup of a scenario returns the same object, so
    the cells built from it compare equal."""
    return (
        Scenario(
            name="fault-free",
            description="no faults: every protocol must commit steadily",
            schedule=_no_faults,
        ),
        Scenario(
            name="fault-free-openloop",
            description="no faults, open-loop cohort arrivals at 800 req/s: "
                        "every protocol must absorb rate-driven load",
            schedule=_no_faults,
            num_clients=6,
            offered_load_rps=800.0,
            cohorts=2,
        ),
        Scenario(
            name="crash-passive",
            description="the replica outside the common case crashes and "
                        "recovers; the common case must not notice",
            schedule=_crash_passive,
            protocols=HAS_PASSIVE,
        ),
        Scenario(
            name="crash-primary",
            description="leader crashes for 1.2 s; failover protocols must "
                        "elect and resume",
            schedule=_crash_primary,
            protocols=FAILOVER,
        ),
        Scenario(
            name="crash-follower",
            description="an active follower crashes and recovers",
            schedule=_crash_follower,
            protocols=FOLLOWER_TOLERANT,
        ),
        Scenario(
            name="rolling-crashes",
            description="Figure 9 cadence: each replica crashes in turn, "
                        "one down at a time",
            schedule=_rolling_crashes,
            protocols=FAILOVER,
            duration_ms=9_000.0,
        ),
        Scenario(
            name="quorum-blackout",
            description="a majority crashes simultaneously, then recovers; "
                        "progress must resume after the blackout",
            schedule=_quorum_blackout,
            protocols=FAILOVER,
        ),
        Scenario(
            name="follower-isolated",
            description="an active follower is partitioned from every "
                        "replica for 2 s, then healed",
            schedule=_follower_isolated,
            protocols=FOLLOWER_TOLERANT,
        ),
        Scenario(
            name="client-primary-partition",
            description="clients lose the primary (replicas stay "
                        "connected); retransmission must recover everyone",
            schedule=_asymmetric_client_partition,
            num_clients=_CLIENT_PARTITION_CLIENTS,
        ),
        Scenario(
            name="flapping-partition",
            description="the primary-follower link flaps three times",
            schedule=_flapping_partition,
            protocols=FOLLOWER_TOLERANT,
        ),
        Scenario(
            name="crash-primary-t2",
            description="t=2 cluster: the leader crashes and recovers; "
                        "the general-path view change (XPaxos "
                        "prepare/commit-vote groups, wider baseline "
                        "quorums) must elect and resume",
            schedule=_crash_primary,
            protocols=FAILOVER,
            config_overrides={"t": 2},
        ),
        Scenario(
            name="crash-two-followers-t2",
            description="t=2 cluster: two follower crashes overlap; the "
                        "quorum holds (or a view change routes around "
                        "them) and progress resumes",
            schedule=_crash_two_followers,
            config_overrides={"t": 2},
        ),
        Scenario(
            name="delta-stress",
            description="slow network: 20 ms one-way delays push RTT close "
                        "to Delta without ever breaking synchrony",
            schedule=_no_faults,
            one_way_ms=20.0,
            config_overrides={"delta_ms": 50.0},
        ),
        Scenario(
            name="byzantine-primary-data-loss",
            description="primary loses its logs above sn=1; a no-crash "
                        "view change must convict it (outside anarchy)",
            schedule=_suspect_follower,
            protocols=XPAXOS_ONLY,
            adversaries={0: lambda: DataLossAdversary(keep_upto=1)},
            config_overrides={"use_fault_detection": True},
            expect_detection=True,
            convicted=frozenset({0}),
        ),
        Scenario(
            name="byzantine-primary-equivocate",
            description="primary reports only a chosen slot at view change "
                        "(the Appendix A fork pattern); FD must convict",
            schedule=_suspect_follower,
            protocols=XPAXOS_ONLY,
            adversaries={0: lambda: EquivocatingAdversary(report_only={1})},
            config_overrides={"use_fault_detection": True},
            expect_detection=True,
            convicted=frozenset({0}),
        ),
        Scenario(
            name="anarchy-byzantine-plus-crash",
            description="a non-crash-faulty primary plus a crashed "
                        "follower: tnc + tc > t, the system enters anarchy",
            schedule=_byz_plus_crash,
            protocols=XPAXOS_ONLY,
            adversaries={0: lambda: DataLossAdversary(keep_upto=0)},
            expect_anarchy=True,
            liveness_bound_ms=None,
        ),
        Scenario(
            name="anarchy-byzantine-plus-partition",
            description="a non-crash-faulty primary plus a partitioned "
                        "follower crosses the anarchy boundary",
            schedule=_byz_plus_partition,
            protocols=XPAXOS_ONLY,
            adversaries={0: lambda: DataLossAdversary(keep_upto=0)},
            expect_anarchy=True,
            liveness_bound_ms=None,
        ),
    )


def scenario_map() -> Dict[str, Scenario]:
    """``name -> scenario`` for the library."""
    return {s.name: s for s in builtin_scenarios()}


def get_scenario(name: str) -> Scenario:
    """Look one scenario up by name.

    Raises:
        KeyError: with the list of known names.
    """
    scenarios = scenario_map()
    if name not in scenarios:
        known = ", ".join(sorted(scenarios))
        raise KeyError(f"unknown scenario {name!r}; known: {known}")
    return scenarios[name]
