"""One execute -> reply core for all five protocols (docs/execution.md).

A duplicate of a request -- in flight or already executed -- is ordered
once and, once executed, answered from the reply cache; a reply cached
without being sent is built only when somebody asks, and is then exactly
the reply a sending replica would have cached; and the application and
the two reply classes are only ever touched from one site each.
"""

import ast
import itertools
from pathlib import Path

import pytest

import repro
from repro.common.config import ProtocolName
from repro.crypto.primitives import digest_of
from repro.protocols.base import GenericReply
from repro.protocols.xpaxos import messages as xmsg
from repro.protocols.xpaxos.signed import verify_signed
from repro.smr.messages import Batch, Request
from tests.conftest import make_harness

ALL_PROTOCOLS = pytest.mark.parametrize(
    "protocol", list(ProtocolName), ids=[p.value for p in ProtocolName])


def recording(client, replies):
    """A ``send_filter`` that appends every ``(src, payload)`` sent to
    ``client`` to ``replies`` and lets everything through."""
    def record(src, dst, payload):
        if dst == client.name:
            replies.append((src, payload))
        return True
    return record


@ALL_PROTOCOLS
def test_duplicate_request_ordered_once_then_answered_from_cache(protocol):
    harness = make_harness(protocol)
    client, leader = harness.runtime.clients[0], harness.replica(0)
    results = []
    client.on_result = results.append
    replies = []
    harness.runtime.network.send_filter = recording(client, replies)

    request = client.propose(("put", "k", "v"), size_bytes=16)
    client.send_request(request)  # duplicates racing the original
    client.send_request(request)
    harness.sim.run(until=500.0)
    assert len(results) == 1 and not client.busy
    times_executed = [
        sum(rids.count(request.rid) for _, rids in replica.execution_trace)
        for replica in harness.replicas]
    assert times_executed[0] == 1 and max(times_executed) == 1
    slots, executed = leader.sn, leader.committed_requests
    cached = leader.cached_reply(request.client, request.timestamp)
    assert cached is not None and cached.timestamp == request.timestamp

    del replies[:]
    client.send_request(request)  # duplicate of an executed request
    harness.sim.run(until=1_000.0)
    assert (leader.sn, leader.committed_requests) == (slots, executed)
    assert [payload for src, payload in replies
            if src == leader.name] == [cached]
    assert len(results) == 1  # the idle client ignores the re-sent reply
    assert harness.checker.violations() == []


# -- replies cached without being sent ------------------------------------
def eager_reply(replica, view, seqno, request, result):
    """The reply a non-sending replica used to build, digest and cache at
    execution time, field by field."""
    fields = dict(replica=replica.replica_id, view=view, seqno=seqno,
                  timestamp=request.timestamp, client=request.client,
                  result=result, result_digest=digest_of(result),
                  size_bytes=0)
    if replica.config.protocol is ProtocolName.XPAXOS:
        return xmsg.ReplyMsg(follower_commit=None, **fields)
    return GenericReply(**fields)


def is_unbuilt(replica, client):
    """Does the cache hold a pointer into a slot record, not a reply?"""
    return type(replica._last_reply[client]) is tuple


@ALL_PROTOCOLS
def test_unsent_reply_is_built_on_demand_and_equals_the_eager_one(protocol):
    replica = make_harness(protocol).replica(1)
    batch = Batch((Request(op="a", timestamp=4, client=0),
                   Request(op="b", timestamp=9, client=2)))
    results = [b"first", None]
    replica.view = 3
    replica.cache_unsent(7, batch, results)
    replica.view = 5  # a reply names the view its slot executed in
    built = []
    make_reply = replica.make_reply
    replica.make_reply = lambda *args: built.append(args) or make_reply(*args)

    # Not executed yet / unknown client: nothing is built.
    assert replica.cached_reply(0, 5) is None
    assert replica.cached_reply(2, 10) is None
    assert replica.cached_reply(1, 1) is None
    assert built == [] and is_unbuilt(replica, 0) and is_unbuilt(replica, 2)

    for request, result in zip(batch, results):
        reply = replica.cached_reply(request.client, request.timestamp)
        expected = eager_reply(replica, 3, 7, request, result)
        assert type(reply) is type(expected) and reply == expected
        # Built once and kept; an older timestamp gets the same object.
        assert replica.cached_reply(request.client,
                                    request.timestamp) is reply
        assert replica.cached_reply(request.client,
                                    request.timestamp - 1) is reply
        assert replica.cached_reply(request.client,
                                    request.timestamp + 1) is None
    assert len(built) == 2


@pytest.mark.parametrize("protocol", [ProtocolName.PAXOS, ProtocolName.ZAB],
                         ids=["paxos", "zab"])
def test_new_leader_answers_a_retried_request_from_an_unbuilt_reply(
        protocol):
    harness = make_harness(protocol)
    network = harness.runtime.network
    client, old, new = (harness.runtime.clients[0], harness.replica(0),
                        harness.replica(1))
    results = []
    client.on_result = results.append
    # The old leader's answer is lost, then the old leader is.
    network.send_filter = lambda src, dst, payload: dst != client.name
    request = client.propose(("put", "k", "v"), size_bytes=16)
    harness.sim.run(until=100.0)
    assert new.ex == 1 and results == []
    assert not is_unbuilt(old, 0) and is_unbuilt(new, 0)
    old.crash()
    new.suspect_view(0)
    harness.sim.run(until=190.0)  # before the client's first retry
    assert new.is_leader and new.view == 1 and is_unbuilt(new, 0)
    executed = [r.committed_requests for r in harness.replicas]

    replies = []
    network.send_filter = recording(client, replies)
    harness.sim.run(until=1_000.0)
    assert len(results) == 1 and not client.busy
    assert [r.committed_requests for r in harness.replicas] == executed
    answer = new._last_reply[0]
    assert (new.name, answer) in replies
    assert answer == eager_reply(new, 0, 1, request, results[0])
    assert harness.checker.violations() == []


class SignedReplyProbe:
    """Records what Algorithm 4 puts on the wire in a cluster whose
    client 0 never hears a plain reply (``drop``), so only a
    SIGNED-REPLIES bundle can complete its request."""

    def __init__(self, drop=lambda src, dst, payload: False, t=1):
        self.harness = make_harness(ProtocolName.XPAXOS, t=t)
        self.client = self.harness.runtime.clients[0]
        self.results = []
        self.client.on_result = self.results.append
        self.shares = []   # (time, share) as first sent by their signer
        self.bundles = []  # bundles sent to the client
        self.drop = drop
        self.harness.runtime.network.send_filter = self.filter

    def filter(self, src, dst, payload):
        now = self.harness.sim.now
        if isinstance(payload, xmsg.SignedReplyShare) \
                and src == f"r{payload.sender}":
            self.shares.append((now, payload))
        if isinstance(payload, xmsg.SignedReplies) \
                and dst == self.client.name:
            self.bundles.append(payload)
        return not self.drop(src, dst, payload)

    def assert_committed_through(self, senders, request):
        """The client committed on a bundle of valid shares from exactly
        ``senders``, each carrying the full result it signed for."""
        assert len(self.results) == 1 and not self.client.busy
        bundle = self.bundles[0]
        assert sorted(s.sender for s in bundle.shares) == senders
        for share in bundle.shares:
            assert verify_signed(self.client, share)
            assert (share.client, share.timestamp) == request.rid
            assert share.result == self.results[0]
            assert digest_of(share.result) == share.reply_digest
        assert self.harness.checker.violations() == []


def lost_plain_replies(src, dst, payload):
    return dst == "c0" and isinstance(payload, xmsg.ReplyMsg)


@pytest.mark.parametrize("crash_follower, senders",
                         [(False, [0, 1]), (True, [0, 2])],
                         ids=["follower", "passive-turned-active"])
def test_resend_of_an_executed_request_gets_a_share_from_an_unbuilt_reply(
        crash_follower, senders):
    probe = SignedReplyProbe(drop=lost_plain_replies)
    harness = probe.harness
    request = probe.client.propose("op", size_bytes=16)
    harness.sim.run(until=150.0)
    # Executed everywhere (r2 through lazy replication); the two silent
    # replicas hold pointers, not replies.
    assert [r.ex for r in harness.replicas] == [1, 1, 1]
    assert is_unbuilt(harness.replica(1), 0)
    assert is_unbuilt(harness.replica(2), 0)
    if crash_follower:
        # r0 cannot gather t + 1 shares, suspects view 0, and the next
        # RE-SEND finds r2 active in view 1.
        harness.replica(1).crash()
    executed = [r.committed_requests for r in harness.replicas]
    harness.sim.run(until=5_000.0)
    probe.assert_committed_through(senders, request)
    assert [r.committed_requests for r in harness.replicas] == executed
    silent = harness.replica(senders[1])
    assert silent._last_reply[0] == eager_reply(silent, 0, 1, request,
                                                probe.results[0])


def test_waiting_retransmission_gets_its_share_when_the_slot_executes():
    probe = SignedReplyProbe()
    harness = probe.harness
    follower = harness.replica(1)
    executed_at = []
    follower.on_commit_batch = \
        lambda seqno, batch: executed_at.append(harness.sim.now)
    # The request reaches no one until the RE-SEND, which r1 forwards to
    # the primary: by the time its slot executes at r1, the
    # retransmission is already waiting there.
    harness.runtime.network.partitions.block_pair("c0", "r0")
    request = probe.client.propose("op", size_bytes=16)
    harness.sim.run(until=3_000.0)
    assert request.rid in follower.retransmitter.waiting
    share_times = [now for now, share in probe.shares if share.sender == 1]
    assert share_times[:1] == executed_at
    probe.assert_committed_through([0, 1], request)
    assert follower._last_reply[0] == eager_reply(follower, 0, 1, request,
                                                  probe.results[0])


def test_a_group_of_former_followers_still_hands_over_the_full_result():
    """t = 2, every plain reply lost, and by the time the client asks
    again nobody in the synchronous group executed the slot as primary:
    r1 and r2 followed in view 0, r3 missed the lazy replication and
    executed as a follower of view 1, then the other two crashed and the
    views rolled on to the one whose group is (r1, r2, r3).  All three
    sent the digest alone, yet each kept the full result, so their bundle
    completes the request."""
    probe = SignedReplyProbe(t=2)
    harness, client = probe.harness, probe.client
    groups = client.groups
    former_followers = (1, 2, 3)
    assert set(groups.followers(0)) | {groups.followers(1)[0]} \
        == set(former_followers)
    target = next(view for view in itertools.count(2)
                  if sorted(groups.group(view)) == list(former_followers))
    r0, r1, r3 = (harness.replica(i) for i in (0, 1, 3))

    probe.drop = lambda src, dst, payload: dst == "c0" or (
        dst == "r3" and isinstance(payload, xmsg.LazyCommit))
    request = client.propose("op", size_bytes=16)
    harness.sim.run(until=50.0)
    assert [r.ex for r in harness.replicas] == [1, 1, 1, 0, 1]
    # From here on the client neither hears nor says anything.
    probe.drop = lambda src, dst, payload: "c0" in (src, dst)
    r1.suspect_view(0)
    harness.sim.run(until=400.0)
    assert (r3.view, r3.is_follower, r3.ex) == (1, True, 1)
    assert is_unbuilt(r1, 0) and is_unbuilt(r3, 0) and not is_unbuilt(r0, 0)
    # Every group but the target's needs one of the two that crash now.
    for replica in harness.replicas:
        if replica.replica_id not in former_followers:
            replica.crash()
    r1.suspect_view(1)
    harness.sim.run(until=5_000.0)
    group = [harness.replica(i) for i in former_followers]
    assert all(r.view == target and not r.in_view_change for r in group)
    executed = [r.committed_requests for r in harness.replicas]

    probe.drop = lost_plain_replies
    harness.sim.run(until=10_000.0)
    probe.assert_committed_through(list(former_followers), request)
    assert [r.committed_requests for r in harness.replicas] == executed
    assert all(r._last_reply[0].result == probe.results[0] for r in group)


# -- one site each ----------------------------------------------------------
def _calls(matches):
    """``(path, line)`` of every call in the package source whose callee
    expression satisfies ``matches``."""
    root = Path(repro.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and matches(node.func):
                sites.append((path.relative_to(root).as_posix(),
                              node.lineno))
    return sites


@pytest.mark.parametrize("method", [
    pytest.param("execute_batch", id="execute"), "restore"])
def test_application_is_touched_from_one_site_under_smr(method):
    sites = _calls(lambda func: isinstance(func, ast.Attribute)
                   and func.attr == method
                   and isinstance(func.value, ast.Attribute)
                   and func.value.attr == "app")
    assert len(sites) == 1, sites
    assert sites[0][0].startswith("smr/"), sites


@pytest.mark.parametrize("reply_class, home", [
    ("GenericReply", "protocols/base.py"),
    ("ReplyMsg", "protocols/xpaxos/replica.py")])
def test_each_reply_class_is_constructed_at_one_site(reply_class, home):
    # Sent and unsent replies come out of the same ``make_reply``.
    sites = _calls(lambda func: reply_class in (
        getattr(func, "id", None), getattr(func, "attr", None)))
    assert [path for path, _ in sites] == [home], sites
