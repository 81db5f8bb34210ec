"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import pytest

from repro.common.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.crypto.authenticators import NULL
from repro.crypto.primitives import replica_principal
from repro.faults.checker import SafetyChecker
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.harness.matrix import CELL_TIMEOUTS
from repro.protocols.registry import build_cluster
from repro.protocols.xpaxos import messages as xmsg
from repro.smr.app import NullService
from repro.smr.runtime import ClusterRuntime
from repro.workloads.clients import ClosedLoopDriver


#: Tight timeouts so fault scenarios converge quickly in unit tests --
#: the same values the scenario conformance cells run under.
FAST_TIMEOUTS = dict(CELL_TIMEOUTS)


def make_cluster(protocol=ProtocolName.XPAXOS, t=1, num_clients=3,
                 **overrides):
    """A small single-datacenter cluster with fast timeouts."""
    params = dict(FAST_TIMEOUTS)
    params.update(overrides)
    config = ClusterConfig(t=t, protocol=protocol, **params)
    return build_cluster(config, num_clients=num_clients, seed=42)


def run_workload(runtime, duration_ms=3_000.0, warmup_ms=100.0,
                 request_size=128):
    """Drive the cluster's clients in a closed loop; returns the driver."""
    workload = WorkloadConfig(
        num_clients=len(runtime.clients),
        request_size=request_size,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
    )
    driver = ClosedLoopDriver(runtime, workload)
    driver.run()
    return driver


def send_plain(net, src, dst, payload, size_bytes=0):
    """A plain send: ``payload`` under the ``NULL`` authenticator policy
    (no authenticator bytes, no RNG draws, ``None`` stamped)."""
    net.send_authenticated(src, dst, payload, size_bytes,
                           authenticator=NULL, keystore=None)


def multicast_plain(net, src, dsts, payload, size_bytes=0):
    """:func:`send_plain` to each of ``dsts``, as one fan-out."""
    net.multicast_authenticated(src, dsts, payload, size_bytes,
                                authenticator=NULL, keystore=None)


class Outbox(list):
    """``(src, dst, payload)`` for every message handed to the network."""

    def of(self, cls):
        """``(dst, payload)`` of the recorded messages of class ``cls``."""
        return [(dst, m) for _, dst, m in self if isinstance(m, cls)]


def isolate(runtime) -> Outbox:
    """Cut every wire of ``runtime`` and return the :class:`Outbox` that
    records what its nodes try to send -- for tests that drive one
    replica's component by hand (``tests/xpaxos/test_*er.py``) and speak
    for its peers themselves."""
    sent = Outbox()

    def record_and_drop(src, dst, payload):
        sent.append((src, dst, payload))
        return False

    runtime.network.send_filter = record_and_drop
    return sent


def null_state_digest(snapshot):
    """What a ``NullService`` restored from ``snapshot`` hashes to."""
    app = NullService()
    app.restore(snapshot)
    return app.state_digest()


_EVIL_SNAPSHOT = (999, b"\xee" * 32)


def checkpoint_proof(keystore, seqno=10, view=0, signers=(0, 1),
                     snapshot=(10, b"\xaa" * 32), state_digest=None):
    """An XPaxos ``CheckpointProof`` (NullService snapshot) in which each of
    ``signers`` genuinely signed its own CHKPT payload over exactly these
    fields; ``state_digest`` defaults to what ``snapshot`` restores to.
    The defaults are honest for a t = 1 cluster in view 0."""
    if state_digest is None:
        state_digest = null_state_digest(snapshot)
    sigs = tuple(
        keystore.sign(
            replica_principal(signer),
            xmsg.Chkpt.payload_of(seqno=seqno, view=view,
                                  state_digest=state_digest, sender=signer))
        for signer in signers)
    return xmsg.CheckpointProof(seqno, view, state_digest, sigs, snapshot)


#: name -> ``forge(keystore)``: proofs a non-crash-faulty replica could
#: assemble from genuine signatures (its own, or lifted from an honest
#: proof) to make a t = 1 replica restore a snapshot nobody vouched for.
#: Each carries t + 1 signatures that verify against *something*, and a
#: snapshot that does restore to the state digest it claims: only the
#: signature check stands between it and the application.
FORGERIES = {
    "one-signer-twice": lambda keystore: checkpoint_proof(
        keystore, seqno=50, signers=(0, 0), snapshot=_EVIL_SNAPSHOT),
    "lifted-from-another-seqno": lambda keystore: dataclasses.replace(
        checkpoint_proof(keystore, snapshot=_EVIL_SNAPSHOT), seqno=50),
    "lifted-from-another-state-digest":
        lambda keystore: dataclasses.replace(
            checkpoint_proof(keystore), snapshot=_EVIL_SNAPSHOT,
            state_digest=null_state_digest(_EVIL_SNAPSHOT)),
    "signer-outside-the-group": lambda keystore: checkpoint_proof(
        keystore, seqno=50, signers=(0, 2), snapshot=_EVIL_SNAPSHOT),
}
#: ``@forgeries``: run a test once per forged proof (argument ``forge``).
forgeries = pytest.mark.parametrize("forge", list(FORGERIES.values()),
                                    ids=list(FORGERIES))


@dataclass
class ClusterHarness:
    """A cluster plus the standard fault/safety instrumentation.

    Bundles what nearly every fault test builds by hand: the runtime, a
    fault injector, and an anarchy-aware safety checker.  ``drive`` runs
    the closed-loop workload and returns the driver for assertions.
    """

    runtime: ClusterRuntime
    injector: FaultInjector
    checker: SafetyChecker

    def arm(self, schedule: FaultSchedule) -> "ClusterHarness":
        """Arm a fault schedule; returns self for chaining."""
        self.injector.arm(schedule)
        return self

    def drive(self, duration_ms: float = 3_000.0,
              warmup_ms: float = 100.0,
              request_size: int = 64) -> ClosedLoopDriver:
        """Run the closed-loop workload over all attached clients."""
        driver = ClosedLoopDriver(
            self.runtime,
            WorkloadConfig(num_clients=len(self.runtime.clients),
                           request_size=request_size,
                           duration_ms=duration_ms, warmup_ms=warmup_ms))
        driver.run()
        return driver

    # Convenience pass-throughs used all over the fault suites.
    def replica(self, replica_id: int):
        return self.runtime.replica(replica_id)

    @property
    def replicas(self):
        return self.runtime.replicas

    @property
    def sim(self):
        return self.runtime.sim


def make_harness(protocol=ProtocolName.XPAXOS, t=1, num_clients=3,
                 non_crash_faulty=(), seed=42, latency=None,
                 **overrides) -> ClusterHarness:
    """A small fast-timeout cluster with injector and checker attached."""
    params = dict(FAST_TIMEOUTS)
    params.update(overrides)
    config = ClusterConfig(t=t, protocol=protocol, **params)
    runtime = build_cluster(config, num_clients=num_clients, seed=seed,
                            latency=latency)
    return ClusterHarness(
        runtime=runtime,
        injector=FaultInjector(runtime),
        checker=SafetyChecker(runtime, non_crash_faulty=non_crash_faulty))


@pytest.fixture(params=list(ProtocolName), ids=[p.value for p in ProtocolName])
def protocol_harness(request):
    """One :class:`ClusterHarness` per protocol (parametrized)."""
    return make_harness(request.param)


@pytest.fixture
def xpaxos_t1():
    """A 3-replica XPaxos cluster with 3 clients."""
    return make_cluster(ProtocolName.XPAXOS, t=1)


@pytest.fixture
def xpaxos_t2():
    """A 5-replica XPaxos cluster with 3 clients."""
    return make_cluster(ProtocolName.XPAXOS, t=2)
