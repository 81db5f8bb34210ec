"""Component-level tests for :class:`Checkpointer` (Section 4.5.1),
driven directly on one replica of a cluster whose wires are cut.  What a
*forged* proof may do is ``test_checkpoint.py``'s subject; this file is
about the honest exchange: PRECHK -> CHKPT -> stable -> LAZYCHK."""

import dataclasses

import pytest

from repro.protocols.xpaxos import messages as msg
from repro.smr.app import KVStore, NullService
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request
from tests.conftest import (
    checkpoint_proof,
    isolate,
    make_cluster,
    null_state_digest,
)

PERIOD = 10
T = pytest.mark.parametrize("t", [1, 2])


def primary_with_logs(t, upto=PERIOD + 2):
    """``(runtime, sent, replica 0)``, the replica holding slots 1..upto in
    both logs as if it had executed them."""
    runtime = make_cluster(t=t, checkpoint_period=PERIOD)
    sent = isolate(runtime)
    replica = runtime.replica(0)
    sig = runtime.keystore.sign("r0", "slot")
    for seqno in range(1, upto + 1):
        batch = Batch((Request(op=seqno, timestamp=seqno, client=0),))
        replica.prepare_log.put(seqno, PrepareEntry(seqno, 0, batch, sig))
        replica.commit_log.put(seqno, CommitEntry(seqno, 0, batch, (sig,)))
    replica.ex = replica.sn = upto
    return runtime, sent, replica


def peer_chkpt(runtime, sender, state_digest, seqno=PERIOD):
    return msg.Chkpt.signed(runtime.replica(sender).sign, seqno=seqno,
                            view=0, state_digest=state_digest, sender=sender)


@T
def test_only_a_period_boundary_on_an_active_replica_starts_a_checkpoint(t):
    runtime, sent, replica = primary_with_logs(t)
    replica.checkpointer.maybe_checkpoint(PERIOD - 1)
    runtime.replica(runtime.config.n - 1).checkpointer.maybe_checkpoint(
        PERIOD)  # passive in view 0
    assert sent == []
    replica.checkpointer.maybe_checkpoint(PERIOD)
    prechks = sent.of(msg.PreChk)
    assert [dst for dst, _ in prechks] == \
        [f"r{r}" for r in replica.groups.followers(0)]
    assert {m.seqno for _, m in prechks} == {PERIOD}


@T
def test_t_plus_one_matching_prechks_make_exactly_one_chkpt(t):
    runtime, sent, replica = primary_with_logs(t)
    checkpointer = replica.checkpointer
    checkpointer.maybe_checkpoint(PERIOD)
    own = replica.app.state_digest()
    followers = replica.groups.followers(0)
    # A vote for another state counts for nothing.
    checkpointer._on_prechk(f"r{followers[0]}", msg.PreChk(
        PERIOD, 0, b"\x07" * 32, followers[0]))
    assert sent.of(msg.Chkpt) == []
    for follower in followers:
        checkpointer._on_prechk(
            f"r{follower}", msg.PreChk(PERIOD, 0, own, follower))
    chkpts = sent.of(msg.Chkpt)
    # One CHKPT, fanned out to the other actives; later votes add none.
    assert len(chkpts) == t and len({id(m) for _, m in chkpts}) == 1
    assert chkpts[0][1].state_digest == own
    assert replica.stable_checkpoint is None  # one signature so far


@T
def test_stable_proof_truncates_both_logs_and_reaches_the_passives(t):
    runtime, sent, replica = primary_with_logs(t)
    checkpointer = replica.checkpointer
    own = replica.app.state_digest()
    checkpointer.maybe_checkpoint(PERIOD)
    # The pipeline executes on while the CHKPT quorum forms.
    replica.app.execute_batch(["a later slot"])
    checkpointer._record_chkpt(peer_chkpt(runtime, 0, own))
    for follower in replica.groups.followers(0)[:t - 1]:
        checkpointer._on_chkpt(f"r{follower}",
                               peer_chkpt(runtime, follower, own))
    assert replica.stable_checkpoint is None and len(replica.commit_log) \
        == PERIOD + 2
    last = replica.groups.followers(0)[t - 1]
    checkpointer._on_chkpt(f"r{last}", peer_chkpt(runtime, last, own))
    proof = replica.stable_checkpoint
    assert (proof.seqno, proof.state_digest) == (PERIOD, own)
    assert len(proof.sigs) == t + 1 and checkpointer.proof_valid(proof)
    for log in (replica.commit_log, replica.prepare_log):
        assert [sn for sn, _ in log.items()] == [PERIOD + 1, PERIOD + 2]
        assert log.low_water == PERIOD
    lazychks = sent.of(msg.LazyChk)
    assert [dst for dst, _ in lazychks] == \
        [f"r{r}" for r in replica.groups.passive(0)]
    assert all(m.proof is proof for _, m in lazychks)
    # The snapshot is the state the signatures are over, not the state
    # at the moment the last of them arrived.
    assert null_state_digest(proof.snapshot) == own \
        != replica.app.state_digest()
    # The vote tables of the finished checkpoint are gone.
    assert checkpointer._prechk_votes == {} == checkpointer._chkpt_sigs
    assert checkpointer._snapshots == {}
    # A CHKPT that arrives after the fact does not re-announce it.
    del sent[:]
    checkpointer._on_chkpt(f"r{last}", peer_chkpt(runtime, last, own))
    assert sent == [] and replica.stable_checkpoint is proof


def test_a_passive_replica_installs_what_lazychk_brings():
    """Through the replica's dispatch: LAZYCHK is the Checkpointer's."""
    runtime, sent, _ = primary_with_logs(1)
    passive = runtime.replica(2)
    proof = checkpoint_proof(runtime.keystore)  # seqno 10, view 0
    passive.on_message("r0", msg.LazyChk(proof))
    assert passive.stable_checkpoint is proof
    assert (passive.ex, passive.sn) == (10, 10)
    assert passive.commit_log.low_water == 10 == passive.prepare_log.low_water
    assert sent == []


def test_a_validly_signed_proof_with_a_swapped_snapshot_is_refused():
    """The signatures are over the state digest; the snapshot rides along
    unsigned, so ``install`` restores it aside and compares."""
    runtime, sent, _ = primary_with_logs(1)
    passive = runtime.replica(2)
    honest = checkpoint_proof(runtime.keystore)
    swapped = dataclasses.replace(honest, snapshot=(10, b"\xee" * 32))
    assert passive.checkpointer.proof_valid(swapped)
    app = passive.app
    assert passive.checkpointer.install(swapped) is False
    assert passive.stable_checkpoint is None and passive.app is app
    assert (passive.ex, passive.sn, app.snapshot()[0]) == (0, 0, 0)
    # The same signatures around the snapshot they were made for.
    assert passive.checkpointer.install(honest) is True
    assert passive.app.state_digest() == honest.state_digest


def _batches(start, count):
    """``count`` slots of three KV operations each, deterministic."""
    return [[("put", f"k{(slot * 3 + i) % 7}", slot * 3 + i)
             for i in range(3)]
            for slot in range(start, start + count)]


@pytest.mark.parametrize("factory", [NullService, KVStore])
def test_restore_of_snapshot_round_trips_the_state_digest(factory):
    """A replica brought up by state transfer must hash like its peers
    from then on, or no group that contains it checkpoints again."""
    original = factory()
    for batch in _batches(0, 20):
        original.execute_batch(batch)
    before = original.state_digest()
    snapshot = original.snapshot()
    assert original.state_digest() == before  # taking one changes nothing
    restored = factory()
    restored.restore(snapshot)
    assert restored.state_digest() == before
    for batch in _batches(20, 50):
        assert original.execute_batch(batch) == restored.execute_batch(batch)
        assert original.state_digest() == restored.state_digest()
    assert original.state_digest() != before
