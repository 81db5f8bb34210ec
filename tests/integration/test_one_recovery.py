"""One way back from a crash, for all five protocols.

``ReplicaBase.recover`` is the one recover loop: it brings the process up
and calls ``recovered()`` on every entry of ``replica.components`` (the
sequencer; XPaxos adds its five machines).  A protocol's own ``recover``
forgets only its own fields, and the VIEW-CHANGE campaign belongs to the
three protocols that run one (``protocols/campaign.py``), not to Paxos.

(a) A leader that crashes with a request queued and is back before the
    client's first re-send orders that re-send: the queue and its dedup
    marks are volatile.  Before, the re-send was dropped as a duplicate
    and every protocol paid a view change (323-410 ms instead of ~205).
(b) After a crash and recovery, what each component holds that a crash
    forgets equals what a freshly built one holds.
(c) No ``recover`` under ``src/repro/protocols`` touches a component,
    or any object's fields but its own.
(d) A Paxos replica carries no campaign state; the campaign's quorum is
    ``n - t``.
"""

import ast
from pathlib import Path

import pytest

from repro.common.config import ProtocolName
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.protocols.base import ClientRequestMsg
from repro.protocols.xpaxos import messages as xmsg
from repro.protocols.xpaxos.checkpoint import Checkpointer
from repro.protocols.xpaxos.lazy import LazyReplicator
from repro.protocols.xpaxos.progress import ProgressWatch
from repro.protocols.xpaxos.retransmission import Retransmitter
from repro.protocols.xpaxos.view_change import ViewChanger
from repro.smr.sequencer import PipelinedSequencer
from tests.conftest import make_cluster

PROTOCOLS = list(ProtocolName)
EACH_PROTOCOL = pytest.mark.parametrize("protocol", PROTOCOLS,
                                        ids=lambda p: p.value)
T = pytest.mark.parametrize("t", [1, 2])

#: Per component class, the fields a crash forgets.  A component class
#: missing here fails (b): a new component must say what it forgets.
VOLATILE = {
    PipelinedSequencer: ("pending", "seen"),
    Retransmitter: ("waiting",),
    ProgressWatch: ("_seqno",),
    LazyReplicator: ("_fetch_pending",),
    Checkpointer: (),
    ViewChanger: (),
}


# -- (a) -------------------------------------------------------------------
@T
@EACH_PROTOCOL
def test_a_request_queued_at_a_crashed_leader_commits_at_the_resend(
        protocol, t):
    # One client on a 1 ms LAN: its request reaches r0 at 1 ms and waits
    # for the 2 ms batch timer; r0 is down from 1.5 to 1.8 ms, and the
    # client re-sends at 200 ms (no round trip measured yet).
    runtime = make_cluster(protocol, t=t, num_clients=1)
    FaultInjector(runtime).arm(FaultSchedule().crash_for(1.5, 0, 0.3))
    client = runtime.clients[0]
    client.propose(b"x", size_bytes=64)
    runtime.sim.run(until=1_000.0)
    assert client.timeouts == 1 and len(client.completions) == 1
    _, committed_at, _ = client.completions[0]
    assert 200.0 < committed_at < 210.0
    views = {replica.view for replica in runtime.replicas}
    # PBFT's passive replica campaigns on any re-send it forwards
    # (ROADMAP: it never executes, so nothing disarms its timer).
    assert views == ({1} if protocol is ProtocolName.PBFT else {0})


# -- (b) -------------------------------------------------------------------
def _volatile(replica):
    state = []
    for component in replica.components:
        fields = VOLATILE[type(component)]
        state.append((type(component).__name__,
                      {name: getattr(component, name) for name in fields}))
    return state


def _load(runtime, leader):
    """Give every component of ``leader`` something a crash forgets,
    through the paths that fill it in a run."""
    client = runtime.clients[0]
    request = client.make_request(b"x", client.next_timestamp(), 64)
    if runtime.config.protocol is not ProtocolName.XPAXOS:
        leader.on_message("c0", ClientRequestMsg(request))
        return
    # A RE-SEND at the primary queues the request and starts waiting on
    # it; a hole in lazy traffic starts a fetch; a prepared slot is
    # watched.
    leader.on_message("c0", xmsg.ReSend(request))
    leader.lazy.fetch_missing(1, 2)
    leader.progress.prepared(1)


@T
@EACH_PROTOCOL
def test_b_recovery_leaves_every_component_as_built(protocol, t):
    runtime = make_cluster(protocol, t=t, num_clients=1)
    fresh = make_cluster(protocol, t=t, num_clients=1).replica(0)
    leader = runtime.replica(0)
    assert [type(c) for c in leader.components] \
        == [type(c) for c in fresh.components]
    _load(runtime, leader)
    # Every component that forgets anything holds something to forget.
    for (name, held), (_, built) in zip(_volatile(leader),
                                        _volatile(fresh)):
        assert not held or held != built, name
    leader.crash()
    leader.recover()
    assert _volatile(leader) == _volatile(fresh)


# -- (c) -------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "protocols"


def _component_attributes():
    """The names under which replicas of any protocol hold a component."""
    names = set()
    for protocol in PROTOCOLS:
        replica = make_cluster(protocol, num_clients=1).replica(0)
        names.update(name for name, value in vars(replica).items()
                     if any(value is c for c in replica.components))
    return names


def _chain(node):
    """``self.a.b`` -> (root node, ["a", "b"])."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return node, attrs[::-1]


def _recover_methods():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "recover":
                    yield f"{cls.name}.recover", item


def _reaches_out(method, components):
    """The attribute uses in ``method`` that are not its own: a chain
    rooted anywhere but ``self`` or ``super()``, through a component,
    or more than one object deep."""
    inner = set()
    found = []
    for node in ast.walk(method):
        if not isinstance(node, ast.Attribute) or node in inner:
            continue
        root, attrs = _chain(node)
        inner.update(n for n in ast.walk(node) if isinstance(n, ast.Attribute))
        if isinstance(root, ast.Call) and isinstance(root.func, ast.Name) \
                and root.func.id == "super":
            continue
        if isinstance(root, ast.Name) and root.id == "self" \
                and len(attrs) <= 2 \
                and not (len(attrs) == 2 and attrs[0] in components):
            continue
        found.append(".".join(attrs))
    return found


def test_c_no_recover_reaches_into_another_object():
    components = _component_attributes()
    assert {"sequencer", "lazy", "progress", "retransmitter"} <= components
    methods = dict(_recover_methods())
    assert {"BaselineReplica.recover", "XPaxosReplica.recover"} <= set(methods)
    offenders = {name: _reaches_out(method, components)
                 for name, method in methods.items()}
    assert not any(offenders.values()), offenders


# -- (d) -------------------------------------------------------------------
def test_d_paxos_carries_no_campaign():
    replica = make_cluster(ProtocolName.PAXOS, num_clients=1).replica(0)
    for name in ("_vc_msgs", "_vc_gather_timer", "_target_view",
                 "_gathering", "campaigning", "view_change_quorum"):
        assert not hasattr(replica, name), name
    assert "vc_gather" not in [timer.label for timer in replica._timers]


@T
@pytest.mark.parametrize("protocol, quorum", [
    (ProtocolName.PBFT, lambda t: 2 * t + 1),
    (ProtocolName.ZYZZYVA, lambda t: 2 * t + 1),
    (ProtocolName.ZAB, lambda t: t + 1),
], ids=["pbft", "zyzzyva", "zab"])
def test_d_the_campaign_quorum_is_n_minus_t(protocol, quorum, t):
    replica = make_cluster(protocol, t=t, num_clients=1).replica(0)
    assert replica.view_change_quorum() == quorum(t)
    assert replica.campaigning is False
