"""Tests for the shared node/cluster runtime."""

import pytest

from repro.common.config import ClusterConfig, ProtocolName
from repro.common.errors import ConfigurationError
from repro.crypto.costs import CostModel
from repro.crypto.primitives import KeyStore
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.smr.app import KVStore, NullService
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch, Request
from repro.smr.runtime import (
    ClusterRuntime,
    NodeBase,
    ReplicaBase,
    ReplyTally,
)
from tests.conftest import make_cluster, send_plain


class _EchoNode(NodeBase):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload))


def lan(sim):
    return Network(sim, LatencyModel.uniform(["X"], one_way_ms=1.0))


class TestNodeBase:
    def test_messages_counted_and_dispatched(self):
        sim = Simulator()
        network = lan(sim)
        keystore = KeyStore()
        a = _EchoNode(sim, network, "a", "X", keystore)
        b = _EchoNode(sim, network, "b", "X", keystore)
        send_plain(network, "a", "b", "hello")
        sim.run()
        assert b.received == [("a", "hello")]
        assert b.messages_received == 1

    def test_crashed_node_drops_deliveries(self):
        sim = Simulator()
        network = lan(sim)
        keystore = KeyStore()
        a = _EchoNode(sim, network, "a", "X", keystore)
        b = _EchoNode(sim, network, "b", "X", keystore)
        b.crash()
        send_plain(network, "a", "b", "hello")
        sim.run()
        assert b.received == []

    def test_cpu_charged_on_replica_crypto(self):
        runtime = make_cluster(num_clients=1)
        replica = runtime.replica(0)
        replica.cpu.cost_model = CostModel()  # type: ignore[misc]
        replica.cpu = type(replica.cpu)(CostModel())
        replica.sign("payload")
        assert replica.cpu.busy_us == CostModel().sign_us


class TestReplicaBase:
    def test_name_helpers(self):
        runtime = make_cluster()
        replica = runtime.replica(1)
        assert replica.replica_name(0) == "r0"
        assert replica.all_replica_names() == ["r0", "r1", "r2"]
        assert replica.other_replica_names() == ["r0", "r2"]

    def test_sign_verify_roundtrip(self):
        runtime = make_cluster()
        replica = runtime.replica(0)
        sig = replica.sign(("data", 1))
        assert sig.signer == replica.principal
        assert runtime.keystore.verify(sig, ("data", 1))
        assert not runtime.keystore.verify(sig, ("data", 2))


class _CoreReplica(ReplicaBase):
    """The smallest ReplicaBase subclass: records what the execution core
    tells it and when, and counts sequencer pumps."""

    def __init__(self):
        sim = Simulator()
        super().__init__(0, ClusterConfig(t=1), sim, lan(sim), KeyStore(),
                         KVStore, "X")
        self.events = []
        self.on_commit_batch = lambda seqno, batch: self.events.append(
            ("on_commit_batch", seqno, self.ex))
        self.sequencer.pump = lambda: self.events.append(("pump",))

    def after_execute(self, seqno, entry, results):
        self.events.append(("after_execute", seqno, self.ex, results))

    def commit(self, seqno, *keys):
        """Put one committed slot of ``put`` operations into the log."""
        batch = Batch(tuple(
            Request(op=("put", key, seqno), timestamp=seqno, client=i)
            for i, key in enumerate(keys)))
        self.commit_log.put(seqno, CommitEntry(seqno, 0, batch, ()))


class TestExecutionCore:
    def test_stops_at_first_hole_then_executes_in_slot_order(self):
        replica = _CoreReplica()
        replica.commit(1, "a")
        replica.commit(3, "c")
        replica.execute_ready()
        assert replica.ex == 1  # slot 2 is a hole: 3 must wait
        replica.commit(2, "b")
        replica.execute_ready()
        assert replica.ex == 3
        assert [sn for sn, _ in replica.execution_trace] == [1, 2, 3]
        assert replica.app.get("c") == 3

    def test_trace_count_and_hooks_once_per_slot_in_order(self):
        replica = _CoreReplica()
        replica.commit(1, "a", "b")
        replica.commit(2, "c")
        replica.execute_ready()
        assert replica.execution_trace == [(1, ((0, 1), (1, 1))),
                                           (2, ((0, 2),))]
        assert replica.committed_requests == 3
        # Per slot: ex already advanced when on_commit_batch fires, then
        # after_execute with one result per request; one pump at the end.
        assert replica.events == [
            ("on_commit_batch", 1, 1), ("after_execute", 1, 1, [None, None]),
            ("on_commit_batch", 2, 2), ("after_execute", 2, 2, [None]),
            ("pump",)]

    def test_pump_once_per_progressing_call_and_never_otherwise(self):
        replica = _CoreReplica()
        replica.execute_ready()  # empty log
        replica.commit(2, "b")
        replica.execute_ready()  # hole at 1
        assert replica.events == []
        replica.commit(1, "a")
        replica.execute_ready()
        replica.execute_ready()  # nothing new
        assert replica.events.count(("pump",)) == 1

    def test_execute_slot_is_the_step_without_log_or_pump(self):
        """The XPaxos t = 1 follower's entry: no commit entry exists yet."""
        replica = _CoreReplica()
        batch = Batch((Request(op=("put", "a", 1), timestamp=1, client=0),))
        assert replica.execute_slot(1, batch) == [None]
        assert replica.ex == 1 and replica.committed_requests == 1
        assert replica.events == [("on_commit_batch", 1, 1)]

    def test_trace_entry_is_the_batch_own_rids_tuple(self):
        """One trace entry per slot, and no copy of the ids per replica:
        every replica that executes a batch appends the same tuple."""
        batch = Batch((Request(op=("put", "a", 1), timestamp=1, client=0),
                       Request(op=("put", "b", 1), timestamp=1, client=1)))
        traces = []
        for _ in range(2):
            replica = _CoreReplica()
            replica.execute_slot(1, batch)
            traces.append(replica.execution_trace)
        assert traces[0] == traces[1] == [(1, ((0, 1), (1, 1)))]
        assert traces[0][0][1] is traces[1][0][1] is batch.rids()
        assert all(rid is request.rid
                   for rid, request in zip(batch.rids(), batch))

    def test_executed_requests_leave_the_dedupe_set(self):
        replica = _CoreReplica()
        replica.may_propose = lambda: False  # queue, never cut a batch
        executed, waiting = (
            Request(op=("put", "a", 1), timestamp=1, client=c)
            for c in (0, 1))
        assert replica.sequencer.offer(executed)
        assert replica.sequencer.offer(waiting)
        replica.execute_slot(1, Batch((executed,)))
        assert replica.sequencer.seen == {waiting.rid}
        assert not replica.sequencer.offer(waiting)  # still a duplicate

    def test_restore_to_moves_forward_only(self):
        replica = _CoreReplica()
        donor = KVStore()
        donor.execute(("put", "k", "v"))
        replica.restore_to(5, donor.snapshot())
        assert (replica.ex, replica.sn) == (5, 5)
        assert replica.app.get("k") == "v"
        replica.sn = 9
        replica.restore_to(5, KVStore().snapshot())
        replica.restore_to(3, KVStore().snapshot())
        assert (replica.ex, replica.sn) == (5, 9)
        assert replica.app.get("k") == "v"  # state untouched
        replica.restore_to(7, donor.snapshot())
        assert (replica.ex, replica.sn) == (7, 9)

    def test_cached_reply_lookup(self):
        replica = _CoreReplica()
        reply = _Reply(0, result="r", timestamp=4)
        replica._last_reply[7] = reply
        assert replica.cached_reply(7, 3) is reply  # client moved past 3
        assert replica.cached_reply(7, 4) is reply
        assert replica.cached_reply(7, 5) is None   # not executed yet
        assert replica.cached_reply(8, 1) is None   # unknown client


class _Reply:
    def __init__(self, replica, result=None, timestamp=1):
        self.replica = replica
        self.result = result
        self.timestamp = timestamp


class TestReplyTally:
    def test_replica_voting_twice_counts_once(self):
        tally = ReplyTally()
        tally.add(0, "k", _Reply(0, "r"))
        tally.add(0, "k", _Reply(0, "r"))
        assert len(tally.voters("k")) == 1
        assert not tally.quorum("k", 2)
        tally.add(1, "k", _Reply(1, "r"))
        assert tally.quorum("k", 2)

    def test_changed_vote_moves_the_count(self):
        tally = ReplyTally()
        tally.add(0, "old", _Reply(0, "a"))
        tally.add(1, "old", _Reply(1, "a"))
        assert tally.quorum("old", 2)
        newer = _Reply(1, "b")
        tally.add(1, "new", newer)
        assert sorted(tally.voters("old")) == [0]
        assert tally.voters("new") == {1: newer}
        assert not tally.quorum("old", 2)
        assert sorted(tally) == ["new", "old"]

    def test_quorum_needs_a_full_result(self):
        tally = ReplyTally()
        tally.add(1, "k", _Reply(1), full=False)
        tally.add(2, "k", _Reply(2), full=False)
        assert not tally.quorum("k", 2)  # digests only so far
        assert tally.result("k") is None
        tally.add(0, "k", _Reply(0, "the result"))
        assert tally.quorum("k", 2)
        assert tally.result("k") == "the result"

    def test_a_full_none_result_is_a_result(self):
        tally = ReplyTally()
        tally.add(0, "k", _Reply(0, None))
        assert tally.quorum("k", 1) and tally.result("k") is None

    def test_clear_forgets_votes_and_results(self):
        tally = ReplyTally()
        tally.add(0, "k", _Reply(0, "r"))
        tally.clear()
        assert list(tally) == [] and not tally.quorum("k", 1)
        tally.add(0, "j", _Reply(0, "s"))  # no stale vote to move
        assert tally.quorum("j", 1)


class TestClusterRuntime:
    def test_replicas_must_be_added_in_order(self):
        sim = Simulator()
        network = lan(sim)
        keystore = KeyStore()
        config = ClusterConfig(t=1, protocol=ProtocolName.XPAXOS)
        runtime = ClusterRuntime(config, sim, network, keystore)
        from repro.protocols.xpaxos.replica import XPaxosReplica

        out_of_order = XPaxosReplica(1, config, sim, network, keystore,
                                     NullService, "X")
        with pytest.raises(ConfigurationError):
            runtime.add_replica(out_of_order)


class TestClientBase:
    def test_timestamps_monotone(self):
        runtime = make_cluster(num_clients=1)
        client = runtime.clients[0]
        assert client.next_timestamp() == 1
        assert client.next_timestamp() == 2

    def test_completion_recording(self):
        runtime = make_cluster(num_clients=1)
        client = runtime.clients[0]
        seen = []
        client.on_commit = lambda rid, latency: seen.append((rid, latency))
        runtime.sim.call_at(10.0, lambda: client.record_completion(
            (0, 1), sent_at=4.0))
        runtime.sim.run()
        assert seen == [((0, 1), 6.0)]
        assert client.completions[0][2] == (0, 1)
