"""One way into a replica, for all five protocols.

``ReplicaBase.on_message`` is the only place a replica dispatches: it
looks the message class up in the replica's ``_handlers`` table, which
the replica's constructor (and, for XPaxos, each component) fills with
the classes it receives.  This pins the table of every protocol to the
replica-bound wire classes it uses -- each registered once, none missing,
none a replica never receives -- and checks that no replica class grows a
second dispatcher back.  ``test_xpaxos_components.py`` additionally
checks, on the AST, that every XPaxos class has exactly one registering
owner among the components.
"""

import pytest

import repro.protocols.base as base
import repro.protocols.campaign as campaign
import repro.protocols.paxos.replica as paxos
import repro.protocols.pbft.replica as pbft
import repro.protocols.xpaxos.messages as xmsg
import repro.protocols.xpaxos.replica as xpaxos
import repro.protocols.zab.replica as zab
import repro.protocols.zyzzyva.replica as zyzzyva
from repro.common.config import ProtocolName
from repro.crypto.authenticators import authenticator_for
from repro.smr.runtime import ReplicaBase
from tests.conftest import make_cluster

#: Addressed to clients: no replica receives these.
CLIENT_BOUND = {base.GenericReply, xmsg.ReplyMsg, xmsg.SignedReplies}
#: What every baseline replica receives besides its own classes.
BASELINE = {base.ClientRequestMsg, base.SyncRequest, base.SyncReply}


def wire_classes(module):
    """The replica-bound wire classes a module defines."""
    return {cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and authenticator_for(cls) is not None} - CLIENT_BOUND


XPAXOS_ALL = wire_classes(xmsg)
DETECTOR = {xmsg.VcConfirm, xmsg.FaultAccusation}
#: ``(protocol, cluster overrides, the classes its replicas register)``.
#: XPaxos wires only the ordering path of its ``t``, and the detector's
#: two classes only under fault detection.
CASES = [
    (ProtocolName.XPAXOS, {"t": 1},
     XPAXOS_ALL - {xmsg.Prepare, xmsg.CommitVote} - DETECTOR),
    (ProtocolName.XPAXOS, {"t": 2},
     XPAXOS_ALL - {xmsg.FastPrepare, xmsg.FastCommit} - DETECTOR),
    (ProtocolName.XPAXOS, {"t": 1, "use_fault_detection": True},
     XPAXOS_ALL - {xmsg.Prepare, xmsg.CommitVote}),
    (ProtocolName.PAXOS, {}, wire_classes(paxos) | BASELINE),
    (ProtocolName.PBFT, {},
     wire_classes(pbft) | BASELINE | {campaign.NewView}),
    (ProtocolName.ZYZZYVA, {},
     wire_classes(zyzzyva) | BASELINE | {campaign.NewView}),
    (ProtocolName.ZAB, {}, wire_classes(zab) | BASELINE | {campaign.NewView}),
]


@pytest.mark.parametrize(
    "protocol, overrides, expected", CASES,
    ids=["-".join([p.value] + [f"{k}={v}" for k, v in o.items()])
         for p, o, _ in CASES])
def test_every_replica_registers_the_classes_it_receives(
        protocol, overrides, expected):
    runtime = make_cluster(protocol, num_clients=1, **overrides)
    for replica in runtime.replicas:
        assert set(replica._handlers) == expected


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_no_replica_class_dispatches_on_its_own():
    # The protocol modules are imported above: every replica class of
    # the package is a subclass by now.
    replica_classes = [cls for cls in subclasses(ReplicaBase)
                       if cls.__module__.startswith("repro.")]
    assert {xpaxos.XPaxosReplica, paxos.PaxosReplica, pbft.PbftReplica,
            zyzzyva.ZyzzyvaReplica, zab.ZabReplica} <= set(replica_classes)
    for cls in replica_classes:
        assert not set(vars(cls)) & {"on_message", "on_protocol_message"}, \
            cls


def test_unknown_message_types_are_ignored():
    runtime = make_cluster(ProtocolName.PBFT, num_clients=1)
    replica = runtime.replica(1)
    replica.on_message("r0", object())
    assert replica.ex == 0 and replica.elections_started == 0
