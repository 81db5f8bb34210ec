"""A slot's replies digest each result object once (docs/execution.md,
"Reply cache").

The replying paths of all five protocols hand ``make_reply`` a digest
from ``digest_each(results)``: one ``digest_of`` per run of one result
object, so a null-service slot (one reply object for every request)
costs one hash, and a slot whose results differ costs one per request,
as before.  What goes on the wire must not change: every reply sent,
every reply cached and every digest-only reply of an XPaxos t >= 2
follower is here rebuilt the way the replica used to build it, with
``digest_of(result)`` of the result it executed, and compared field by
field.
"""

import pytest

from repro.common.config import ClusterConfig, ProtocolName
from repro.crypto.primitives import digest_cache_stats, digest_each, digest_of
from repro.protocols.base import GenericReply
from repro.protocols.registry import build_cluster
from repro.protocols.xpaxos import messages as xmsg
from repro.smr.app import KVStore, NullService
from repro.smr.messages import Batch, Request
from tests.conftest import FAST_TIMEOUTS


def digest_calls():
    return sum(digest_cache_stats().values())


def test_digest_each_hashes_each_run_of_one_object_once():
    a, b = b"\x00" * 8, b"\x01" * 8
    objs = [a, a, b, b, a, None, None]
    before = digest_calls()
    digests = digest_each(objs)
    assert digest_calls() - before == 4  # a | b | a | None
    assert digests == [digest_of(obj) for obj in objs]
    assert digest_each([]) == []


def cluster(protocol, app=NullService, t=1, num_clients=16):
    config = ClusterConfig(t=t, protocol=protocol, **FAST_TIMEOUTS)
    return build_cluster(config, num_clients=num_clients, app_factory=app,
                         seed=42)


@pytest.mark.parametrize("protocol, reply_path", [
    (ProtocolName.PBFT, "reply_to_clients"),
    (ProtocolName.XPAXOS, "_reply_to_clients")], ids=["baseline", "xpaxos"])
@pytest.mark.parametrize("app, distinct", [(NullService, 1), (KVStore, 16)],
                         ids=["null-service", "kvstore"])
def test_a_replying_replica_digests_each_distinct_result_once(
        protocol, reply_path, app, distinct):
    replica = cluster(protocol, app).replicas[0]
    batch = Batch(tuple(Request(op=("put", "k", i), timestamp=1, client=i)
                        for i in range(16)))
    results = replica.execute_slot(1, batch)
    assert len({id(result) for result in results}) == distinct
    sent = []
    replica.send = sent.extend
    before = digest_calls()
    getattr(replica, reply_path)(1, batch, results)
    assert digest_calls() - before == distinct
    assert [dst for dst, _ in sent] == [f"c{i}" for i in range(16)]
    for (_, reply), result in zip(sent, results):
        assert reply.result is result
        assert reply.result_digest == digest_of(result)


class ExecutionLog:
    """What each replica executed: ``(replica id, rid) -> (view, seqno,
    result)``, recorded by wrapping its ``execute_slot``."""

    def __init__(self, runtime):
        self.executed = {}
        for replica in runtime.replicas:
            replica.execute_slot = self.wrap(replica)

    def wrap(self, replica):
        execute_slot = replica.execute_slot

        def record(seqno, batch):
            results = execute_slot(seqno, batch)
            for request, result in zip(batch.requests, results):
                self.executed[replica.replica_id, request.rid] = (
                    replica.view, seqno, result)
            return results
        return record

    def result(self, replica, client, timestamp):
        return self.executed[replica.replica_id, (client, timestamp)][2]

    def reply(self, replica, client, timestamp, **wire):
        """The reply ``replica`` used to build for ``client``'s request
        ``timestamp``, digesting the result it executed per reply."""
        view, seqno, result = self.executed[replica.replica_id,
                                            (client, timestamp)]
        full = wire.pop("full", True)
        fields = dict(replica=replica.replica_id, view=view, seqno=seqno,
                      timestamp=timestamp, client=client,
                      result=result if full else None,
                      result_digest=digest_of(result), **wire)
        if replica.config.protocol is ProtocolName.XPAXOS:
            fields.setdefault("follower_commit", None)
            return xmsg.ReplyMsg(**fields)
        return GenericReply(**fields)


def drive_kv_clients(runtime, until_ms):
    """Closed loop: every client puts to one shared key, so each result
    is the previous writer's value and no two replies carry the same."""
    for client in runtime.clients:
        def next_put(_result, client=client):
            if runtime.sim.now < until_ms - 50.0:
                client.propose(("put", "k", (client.client_id,
                                             client.timestamp + 1)), 16)
        client.on_result = next_put
        next_put(None)
    runtime.run(until=until_ms)


@pytest.mark.parametrize("protocol, t", [
    (ProtocolName.XPAXOS, 1), (ProtocolName.XPAXOS, 2),
    (ProtocolName.PAXOS, 1), (ProtocolName.PBFT, 1),
    (ProtocolName.ZYZZYVA, 1), (ProtocolName.ZAB, 1)],
    ids=["xpaxos", "xpaxos-t2", "paxos", "pbft", "zyzzyva", "zab"])
def test_every_reply_equals_the_one_digested_per_reply(protocol, t):
    runtime = cluster(protocol, KVStore, t=t, num_clients=6)
    log = ExecutionLog(runtime)
    sent = []

    def record(src, dst, payload):
        if isinstance(payload, (GenericReply, xmsg.ReplyMsg)):
            sent.append((src, payload))
        return True
    runtime.network.send_filter = record
    drive_kv_clients(runtime, 600.0)
    assert sum(len(c.completions) for c in runtime.clients) > 50

    digest_only = 0
    for src, reply in sent:
        replica = runtime.replicas[reply.replica]
        assert src == replica.name
        wire = {}
        if isinstance(reply, xmsg.ReplyMsg):
            # The first put's result is None: that reply is full, but
            # looks like a digest-only one.
            full = reply.result is not None or log.result(
                replica, reply.client, reply.timestamp) is None
            digest_only += not full
            wire = dict(full=full, follower_commit=reply.follower_commit)
        expected = log.reply(replica, reply.client, reply.timestamp,
                             wire_bytes=reply.wire_bytes, **wire)
        assert type(reply) is type(expected) and reply == expected
    # The t >= 2 followers answer with the digest alone.
    assert (digest_only > 0) == (protocol is ProtocolName.XPAXOS and t == 2)

    # Cached replies, built on the first ask where the replica did not
    # send one, carry the same digest.
    cached = 0
    for replica in runtime.replicas:
        for client in runtime.clients:
            reply = replica.cached_reply(client.client_id, 0)
            if reply is None:
                continue
            cached += 1
            full = reply.result is not None or log.result(
                replica, reply.client, reply.timestamp) is None
            wire = {"follower_commit": reply.follower_commit} \
                if isinstance(reply, xmsg.ReplyMsg) else {}
            assert reply == log.reply(replica, reply.client,
                                      reply.timestamp, full=full,
                                      wire_bytes=reply.wire_bytes, **wire)
    assert cached >= len(runtime.clients)
