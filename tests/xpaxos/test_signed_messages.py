"""The signed-message contract (``Signed`` / ``verify_signed``).

XPaxos is safe outside anarchy only because a faulty replica cannot forge
signatures.  For every signed message class, three forgeries a single
faulty replica can assemble are each dropped with the receiver's state
untouched, and the honest message is accepted afterwards:

* ``wrong-principal`` -- a genuine signature over the very same fields,
  made by a replica other than the one the class declares as its signer;
* ``tampered`` -- the right signer's signature, one covered field changed
  after signing;
* ``zeroed-token`` -- the right signer's name over the right digest with
  an all-zero token.
"""

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict

import pytest

from repro.common.config import ProtocolName
from repro.common.errors import ProtocolViolation
from repro.crypto.primitives import Signature, digest_of
from repro.faults.adversary import (
    Adversary,
    DataLossAdversary,
    EquivocatingAdversary,
    SilentAdversary,
    StaleViewAdversary,
)
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.signed import Signed, verify_signed
from repro.smr.log import PrepareEntry
from repro.smr.messages import Batch
from tests.conftest import make_cluster, make_harness, run_workload, \
    unfilled

STATE_DIGEST = b"\x07" * 32


# ---------------------------------------------------------------------------
# Forgeries and what they must leave alone
# ---------------------------------------------------------------------------


def wrong_principal(runtime, case):
    signer = case.honest.signer(case.receiver.groups)
    wrong = max(r.replica_id for r in runtime.replicas
                if r.replica_id != signer and r is not case.receiver)
    return case.honest.resigned(runtime.replica(wrong).sign)


def tampered(runtime, case):
    return dataclasses.replace(case.honest, **case.tamper)


def zeroed_token(runtime, case):
    name = case.honest.signature_field
    sig = getattr(case.honest, name)
    return dataclasses.replace(
        case.honest, **{name: Signature(sig.signer, sig.digest, bytes(32))})


FORGERIES = {"wrong-principal": wrong_principal, "tampered": tampered,
             "zeroed-token": zeroed_token}


def vc_state(replica):
    """The view change ``replica`` has in progress (None before any)."""
    return replica.view_changer._state


def fingerprint(node):
    """Everything a forged message could have moved."""
    if not hasattr(node, "commit_log"):  # a client
        return (node.view, node.busy, len(node.completions))
    vc = vc_state(node)
    return (
        node.view, node.in_view_change, node.view_changes_completed,
        node.sn, node.ex, node.stable_checkpoint,
        dict(node.commit_log.items()), dict(node.prepare_log.items()),
        vc and (dict(vc.vcset), dict(vc.vc_finals), dict(vc.vc_confirms)),
        {seqno: dict(v)
         for seqno, v in node.checkpointer._chkpt_sigs.items()},
        {seqno: dict(v) for seqno, v in node._commit_votes.items()},
        dict(node._fast_commits_pending),
        {rid: dict(s.shares)
         for rid, s in node.retransmitter.waiting.items()},
    )


@dataclass
class Case:
    """One receiver about to get one signed message."""

    receiver: Any
    honest: Any                        # built by ``Cls.signed``
    tamper: Dict[str, Any]             # covered field -> another value
    accepted: Callable[[], bool]       # did the receiver take it in?
    src: str = ""                      # network name it arrives from
    deliver: Any = None                # how it reaches the receiver
    #: A bad NEW-VIEW is dropped *and* its view suspected (Algorithm 3).
    suspects: bool = False

    def give(self, m):
        if self.deliver is not None:
            return self.deliver(m)
        try:
            self.receiver._handlers[type(m)](self.src, m)
        except ProtocolViolation:
            pass  # on_message would turn this into a suspicion


def signed_batch(runtime):
    request = runtime.clients[0].make_request(("put", "k", "v"), 1, 16)
    batch = Batch((request,))
    return request, batch, msg.batch_digest_of(batch)


def primary_of(runtime, view):
    """The replica that leads ``view``."""
    return runtime.replica(runtime.replica(0).groups.primary(view))


def in_view_one(runtime, replica_id=None):
    """``replica_id`` (default: view 1's primary) in the middle of the
    change to view 1."""
    replica = primary_of(runtime, 1) if replica_id is None \
        else runtime.replica(replica_id)
    replica.view_changer._enter_view(1)
    return replica


def other_active(replica, view):
    """An active replica of ``view`` other than ``replica``."""
    return max(r for r in replica.groups.group(view)
               if r != replica.replica_id)


def ordering_case(runtime):
    follower = runtime.replica(1)
    _, batch, batch_digest = signed_batch(runtime)
    cls = msg.FastPrepare if runtime.config.t == 1 else msg.Prepare
    honest = cls.signed(runtime.replica(0).sign, view=0, seqno=1,
                        batch=batch, batch_digest=batch_digest)
    return Case(follower, honest, {"seqno": 2}, lambda: follower.sn == 1,
                src="r0")


def commit_vote_case(runtime):
    primary = runtime.replica(0)
    _, batch, batch_digest = signed_batch(runtime)
    honest = msg.CommitVote.signed(
        runtime.replica(1).sign, view=0, seqno=1, batch_digest=batch_digest,
        sender=1)
    return Case(primary, honest, {"sender": 2},
                lambda: 1 in primary._commit_votes.get(1, {}), src="r1")


def fast_commit_case(runtime):
    primary = runtime.replica(0)
    request, batch, batch_digest = signed_batch(runtime)
    primary.propose_batch(1, batch)
    result = runtime.replica(1).app.execute(request.op)
    honest = msg.FastCommit.signed(
        runtime.replica(1).sign, view=0, seqno=1, batch_digest=batch_digest,
        reply_digest=digest_of((result,)))
    return Case(primary, honest, {"reply_digest": digest_of("other")},
                lambda: primary.ex == 1, src="r1")


def fast_commit_at_client_case(runtime):
    """The same ``m1`` where the client checks it: inside the primary's
    reply (the reply's own channel MAC is the transport's business)."""
    client = runtime.clients[0]
    request = client.propose(("put", "k", "v"), size_bytes=16)
    result = runtime.replica(1).app.execute(request.op)
    honest = msg.FastCommit.signed(
        runtime.replica(1).sign, view=0, seqno=1,
        batch_digest=msg.batch_digest_of(Batch((request,))),
        reply_digest=digest_of((result,)))

    def deliver(m1):
        client._on_reply(msg.ReplyMsg(
            0, 0, 1, request.timestamp, request.client, result,
            digest_of(result), follower_commit=m1))

    return Case(client, honest, {"reply_digest": digest_of("other")},
                lambda: not client.busy, deliver=deliver)


def suspect_case(runtime):
    primary = runtime.replica(0)
    honest = msg.Suspect.signed(runtime.replica(1).sign, view=0, sender=1)
    return Case(primary, honest, {"sender": 0},
                lambda: primary.view == 1, src="r1")


def suspect_at_client_case(runtime):
    client = runtime.clients[0]
    honest = msg.Suspect.signed(runtime.replica(1).sign, view=0, sender=1)
    return Case(client, honest, {"sender": 0}, lambda: client.view == 1,
                deliver=lambda m: client.on_message("r1", m))


def view_change_case(runtime):
    receiver = primary_of(runtime, 1)  # still in view 0
    sender = other_active(receiver, 1)
    honest = runtime.replica(sender).view_changer.build_view_change(1)
    return Case(receiver, honest, {"prepare_view": 7},
                lambda: receiver.view == 1
                and vc_state(receiver).vcset.get(sender) is honest,
                src=f"r{sender}")


def vc_final_case(runtime):
    receiver = in_view_one(runtime)
    sender = other_active(receiver, 1)
    vcset = (runtime.replica(sender).view_changer.build_view_change(1),)
    honest = msg.VcFinal.signed(
        runtime.replica(sender).sign, new_view=1, sender=sender,
        vcset=vcset, vcset_digest=digest_of(vcset))
    return Case(receiver, honest, {"vcset_digest": digest_of("other")},
                lambda: sender in vc_state(receiver).vc_finals
                and sender in vc_state(receiver).vcset, src=f"r{sender}")


def vc_confirm_case(runtime):
    receiver = in_view_one(runtime)
    sender = other_active(receiver, 1)
    honest = msg.VcConfirm.signed(
        runtime.replica(sender).sign, new_view=1, sender=sender,
        vcset_digest=digest_of("vcset"))
    return Case(receiver, honest, {"vcset_digest": digest_of("other")},
                lambda: sender in vc_state(receiver).vc_confirms,
                src=f"r{sender}")


def new_view_case(runtime):
    primary = primary_of(runtime, 1)
    follower = in_view_one(runtime, primary.groups.followers(1)[0])
    _, batch, _ = signed_batch(runtime)
    honest = msg.NewView.signed(primary.sign, new_view=1,
                                entries=(), checkpoint=None)
    smuggled = PrepareEntry(1, 1, batch, honest.sig)
    return Case(follower, honest, {"entries": (smuggled,)},
                lambda: follower.view_changes_completed == 1
                and not follower.in_view_change, src=primary.name,
                suspects=True)


def chkpt_case(runtime):
    receiver = runtime.replica(0)
    honest = msg.Chkpt.signed(runtime.replica(1).sign, seqno=64, view=0,
                              state_digest=STATE_DIGEST, sender=1)
    return Case(receiver, honest, {"state_digest": b"\x08" * 32},
                lambda: 1 in receiver.checkpointer._chkpt_sigs.get(64, {}), src="r1")


def signed_reply_share_case(runtime):
    client, primary = runtime.clients[0], runtime.replica(0)
    request = client.propose("op", size_bytes=8)
    runtime.sim.run(until=100.0)
    assert not client.busy  # executed and answered
    primary.retransmitter._start(request)
    cached = primary.cached_reply(request.client, request.timestamp)
    honest = msg.SignedReplyShare.signed(
        runtime.replica(1).sign, view=0, seqno=cached.seqno,
        timestamp=cached.timestamp, client=cached.client,
        reply_digest=cached.result_digest, result=cached.result, sender=1)
    shares = primary.retransmitter.waiting[request.rid].shares
    return Case(primary, honest, {"reply_digest": digest_of("other")},
                lambda: 1 in shares, src="r1")


def cluster_for(builder, t):
    """VC-CONFIRM exists (and has a handler) only under fault detection."""
    return make_cluster(ProtocolName.XPAXOS, t=t,
                        use_fault_detection=builder is vc_confirm_case)


#: name -> (builder, the t it applies to)
CASES = {
    "FastPrepare": (ordering_case, (1,)),
    "Prepare": (ordering_case, (2,)),
    "CommitVote": (commit_vote_case, (2,)),
    "FastCommit": (fast_commit_case, (1,)),
    "FastCommit@client": (fast_commit_at_client_case, (1,)),
    "Suspect": (suspect_case, (1, 2)),
    "Suspect@client": (suspect_at_client_case, (1, 2)),
    "ViewChange": (view_change_case, (1, 2)),
    "VcFinal": (vc_final_case, (1, 2)),
    "VcConfirm": (vc_confirm_case, (1, 2)),
    "NewView": (new_view_case, (1, 2)),
    "Chkpt": (chkpt_case, (1, 2)),
    "SignedReplyShare": (signed_reply_share_case, (1, 2)),
}
CASE_PARAMS = [pytest.param(builder, t, id=f"{name}-t{t}")
               for name, (builder, ts) in CASES.items() for t in ts]


def test_every_signed_class_has_a_case():
    signed = {cls.__name__ for cls in Signed.__subclasses__()}
    assert signed == {name.split("@")[0] for name in CASES}


@pytest.mark.parametrize("forge", list(FORGERIES.values()),
                         ids=list(FORGERIES))
@pytest.mark.parametrize("builder, t", CASE_PARAMS)
def test_forgery_is_dropped_and_the_honest_message_accepted(builder, t,
                                                            forge):
    runtime = cluster_for(builder, t)
    case = builder(runtime)
    forged = forge(runtime, case)
    assert forged != case.honest and not case.accepted()
    before = fingerprint(case.receiver)
    case.give(forged)
    if case.suspects:
        receiver = case.receiver
        assert (receiver.view, receiver.in_view_change) == (2, True)
        assert (receiver.view_changes_completed, receiver.sn) == (0, 0)
        assert not len(receiver.commit_log) and not len(receiver.prepare_log)
        return
    assert fingerprint(case.receiver) == before
    case.give(case.honest)
    assert case.accepted()


@pytest.mark.parametrize("builder, t", CASE_PARAMS)
def test_honest_message_is_seeded_and_a_copy_rederives_the_same(builder, t):
    """``signed`` builds the message with ``payload_digest`` from the
    signature; a message rebuilt from the same fields starts without one
    and hashes to it."""
    case = builder(cluster_for(builder, t))
    honest = case.honest
    signature = getattr(honest, honest.signature_field)
    assert honest.payload_digest is signature.digest
    twin = dataclasses.replace(honest)
    assert unfilled(twin, "payload_digest")
    assert twin.payload_digest == signature.digest
    assert verify_signed(case.receiver, twin)


# ---------------------------------------------------------------------------
# Membership: a genuine signature by someone with no say in the matter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2])
def test_vc_confirm_from_outside_the_group_is_dropped(t):
    runtime = make_cluster(ProtocolName.XPAXOS, t=t,
                           use_fault_detection=True)
    receiver = in_view_one(runtime)
    outsider = receiver.groups.passive(1)[0]
    confirm = msg.VcConfirm.signed(
        runtime.replica(outsider).sign, new_view=1, sender=outsider,
        vcset_digest=digest_of("vcset"))
    receiver.view_changer._on_vc_confirm(f"r{outsider}", confirm)
    assert vc_state(receiver).vc_confirms == {}


@pytest.mark.parametrize("t", [1, 2])
def test_chkpt_from_outside_the_group_is_dropped(t):
    runtime = make_cluster(ProtocolName.XPAXOS, t=t)
    receiver = runtime.replica(0)
    outsider = receiver.groups.passive(0)[0]
    chkpt = msg.Chkpt.signed(runtime.replica(outsider).sign, seqno=64,
                             view=0, state_digest=STATE_DIGEST,
                             sender=outsider)
    receiver.checkpointer._on_chkpt(f"r{outsider}", chkpt)
    assert receiver.checkpointer._chkpt_sigs == {}


@pytest.mark.parametrize("t", [1, 2])
def test_one_replica_cannot_sign_a_stable_checkpoint_alone(t):
    """t + 1 CHKPTs over an attacker-chosen digest, all signed by one
    passive replica, each naming a different active one."""
    runtime = make_cluster(ProtocolName.XPAXOS, t=t)
    run_workload(runtime, duration_ms=300.0)
    receiver = runtime.replica(0)
    logs = len(receiver.commit_log), len(receiver.prepare_log)
    assert logs[0] > 0
    forger = runtime.replica(receiver.groups.passive(0)[0])
    for named in receiver.groups.group(0):
        receiver.on_message(forger.name, msg.Chkpt.signed(
            forger.sign, seqno=receiver.ex, view=0,
            state_digest=STATE_DIGEST, sender=named))
    assert receiver.stable_checkpoint is None
    assert (len(receiver.commit_log), len(receiver.prepare_log)) == logs


# ---------------------------------------------------------------------------
# VC-FINAL: the piggybacked set
# ---------------------------------------------------------------------------


def vc_final_around(runtime, sender, vcset, vcset_digest=None):
    return msg.VcFinal.signed(
        runtime.replica(sender).sign, new_view=1, sender=sender,
        vcset=vcset, vcset_digest=vcset_digest or digest_of(vcset))


@pytest.mark.parametrize("t", [1, 2])
class TestVcFinalSet:
    def setup(self, t):
        runtime = make_cluster(ProtocolName.XPAXOS, t=t)
        receiver = in_view_one(runtime)
        sender = other_active(receiver, 1)
        victim = receiver.groups.passive(1)[0]
        return runtime, receiver, sender, victim

    def test_set_that_does_not_hash_to_its_digest_merges_nothing(self, t):
        runtime, receiver, sender, victim = self.setup(t)
        real = runtime.replica(sender).view_changer.build_view_change(1)
        other = runtime.replica(victim).view_changer.build_view_change(1)
        before = fingerprint(receiver)
        receiver.view_changer._on_vc_final(f"r{sender}", vc_final_around(
            runtime, sender, (real, other), digest_of((real,))))
        assert fingerprint(receiver) == before

    def test_one_forged_view_change_spoils_the_whole_set(self, t):
        """The sender's own VIEW-CHANGE is genuine; the one it carries in
        the victim's name is its own work."""
        runtime, receiver, sender, victim = self.setup(t)
        real = runtime.replica(sender).view_changer.build_view_change(1)
        honest = runtime.replica(victim).view_changer.build_view_change(1)
        forged = honest.resigned(runtime.replica(sender).sign,
                                 prepare_view=7)
        before = fingerprint(receiver)
        receiver.view_changer._on_vc_final(f"r{sender}",
                              vc_final_around(runtime, sender,
                                              (forged, real)))
        assert fingerprint(receiver) == before

    def test_view_change_for_another_view_spoils_the_set(self, t):
        runtime, receiver, sender, victim = self.setup(t)
        real = runtime.replica(sender).view_changer.build_view_change(1)
        stray = runtime.replica(victim).view_changer.build_view_change(2)
        before = fingerprint(receiver)
        receiver.view_changer._on_vc_final(f"r{sender}",
                              vc_final_around(runtime, sender,
                                              (real, stray)))
        assert fingerprint(receiver) == before

    def test_genuine_set_is_merged(self, t):
        runtime, receiver, sender, victim = self.setup(t)
        vcset = (runtime.replica(sender).view_changer.build_view_change(1),
                 runtime.replica(victim).view_changer.build_view_change(1))
        receiver.view_changer._on_vc_final(f"r{sender}",
                              vc_final_around(runtime, sender, vcset))
        state = vc_state(receiver)
        assert sender in state.vc_finals
        assert {sender, victim} <= set(state.vcset)


def test_vc_final_from_a_passive_replica_is_dropped(xpaxos_t1):
    """r1 is passive in view 1 = (r0, r2): its genuine signature under
    r2's name must not file a VC-FINAL as r2."""
    receiver = in_view_one(xpaxos_t1, 0)
    vcset = (xpaxos_t1.replica(1).view_changer.build_view_change(1),)
    receiver.view_changer._on_vc_final("r1", msg.VcFinal.signed(
        xpaxos_t1.replica(1).sign, new_view=1, sender=2, vcset=vcset,
        vcset_digest=digest_of(vcset)))
    assert vc_state(receiver).vc_finals == {}


# ---------------------------------------------------------------------------
# The adversaries sign what they send
# ---------------------------------------------------------------------------


ADVERSARIES = {
    "data-loss": lambda: DataLossAdversary(keep_upto=1),
    # Any view but the entries' own (0): only the signature matters here.
    "stale-view": lambda: StaleViewAdversary(stale_view=5),
    "silent": SilentAdversary,
    "equivocating": lambda: EquivocatingAdversary(report_only=[1]),
}


@pytest.mark.parametrize("checkpointed", [False, True],
                         ids=["no-checkpoint", "stable-checkpoint"])
@pytest.mark.parametrize("make", list(ADVERSARIES.values()),
                         ids=list(ADVERSARIES))
def test_mutated_view_change_verifies(make, checkpointed):
    """Content is the fault, never the signature: whatever an adversary
    makes of the VIEW-CHANGE, the result is validly signed over exactly
    the fields it carries -- also by a receiver that re-derives the
    payload from them."""
    runtime = make_cluster(
        ProtocolName.XPAXOS, use_fault_detection=True,
        checkpoint_period=8 if checkpointed else 10_000)
    run_workload(runtime, duration_ms=400.0)
    faulty, receiver = runtime.replica(0), runtime.replica(2)
    assert (faulty.stable_checkpoint is not None) == checkpointed
    honest = faulty.view_changer.build_view_change(1)
    assert honest.commit_entries and honest.prepare_entries
    faulty.byzantine = make()
    mutated = faulty.view_changer.build_view_change(1)
    assert mutated != honest
    assert verify_signed(receiver, mutated)
    assert verify_signed(receiver, dataclasses.replace(mutated))


def test_no_constructor_takes_the_digest_of_other_fields():
    """A relay that changes a field of replica 2's genuine VIEW-CHANGE
    cannot hand the copy the digest that was signed: the constructor
    takes no derived value, and a copy built without it fails."""
    runtime = make_cluster(ProtocolName.XPAXOS, t=1)
    genuine = runtime.replica(2).view_changer.build_view_change(1)
    verifier = runtime.replica(0)
    assert verify_signed(verifier, genuine)
    fields = {f.name: getattr(genuine, f.name)
              for f in dataclasses.fields(genuine)}
    with pytest.raises(TypeError):
        msg.ViewChange(**{**fields, "prepare_view": 7},
                       payload_digest=genuine.sig.digest)
    assert not verify_signed(
        verifier, dataclasses.replace(genuine, prepare_view=7))


# ---------------------------------------------------------------------------
# End to end: a VIEW-CHANGE in a correct replica's name
# ---------------------------------------------------------------------------


class ImpersonatingAdversary(Adversary):
    """A faulty r0, primary of views 0 and 1: as it enters view 1 it sends
    the other new active replica an empty VIEW-CHANGE in r1's name (the
    token is all zeros -- it cannot do better) ahead of r1's real one,
    optionally reporting an empty log itself.  First-per-sender wins in
    the VCSet, so if the forgery were filed r1's log would be ignored."""

    def __init__(self, loses_own_log):
        self.loses_own_log = loses_own_log
        self.injected = 0

    def mutate_view_change(self, replica, vc):
        fields = dict(new_view=vc.new_view, sender=1, commit_entries=(),
                      checkpoint=None, prepare_entries=None, prepare_view=0,
                      final_proof=None)
        token = Signature(
            "r1", digest_of(msg.ViewChange.payload_of(**fields)), bytes(32))
        replica.send_authenticated(
            "r2", msg.ViewChange(sig=token, **fields))
        self.injected += 1
        if self.loses_own_log:
            return SilentAdversary().mutate_view_change(replica, vc)
        return vc


@pytest.mark.parametrize("loses_own_log", [False, True],
                         ids=["own-log-reported", "own-log-lost"])
def test_impersonated_view_change_loses_nothing(loses_own_log):
    """t = 1, one non-crash fault, nothing else wrong: outside anarchy.
    r2 never saw the requests (no lazy replication), so in the lost-log
    variant r1's VIEW-CHANGE is the only place they survive."""
    harness = make_harness(ProtocolName.XPAXOS, t=1, num_clients=2,
                           non_crash_faulty=(0,),
                           use_lazy_replication=False,
                           checkpoint_period=10_000)
    runtime = harness.runtime
    run_workload(runtime, duration_ms=300.0)
    runtime.sim.run(until=runtime.sim.now + 200.0)  # quiesce
    victim, bystander = runtime.replica(1), runtime.replica(2)
    committed = [rids for _, rids in victim.execution_trace]
    assert committed and bystander.execution_trace == []

    adversary = ImpersonatingAdversary(loses_own_log)
    runtime.replica(0).byzantine = adversary
    runtime.replica(0).suspect_view(0)
    runtime.sim.run(until=runtime.sim.now + 3_000.0)
    assert adversary.injected >= 1
    assert bystander.view_changes_completed >= 1

    # The new group's correct member selected, and so executed, every
    # request the victim had committed, in the victim's order.
    assert [rids for _, rids in bystander.execution_trace][
        :len(committed)] == committed
    run_workload(runtime, duration_ms=500.0)
    assert harness.checker.violations() == []


# ---------------------------------------------------------------------------
# FD: is the witness's commit entry backed by what its slot must carry?
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2])
class TestCommitProofValid:
    def witness(self, t):
        runtime = make_cluster(ProtocolName.XPAXOS, t=t,
                               use_fault_detection=True)
        run_workload(runtime, duration_ms=200.0)
        follower = runtime.replica(1)
        entry = follower.commit_log.get(follower.commit_log.end)
        assert len(entry.proof) == t + 1
        return runtime, follower.view_changer.detector, entry

    def test_honest_entries_pass(self, t):
        runtime, detector, _ = self.witness(t)
        for replica in runtime.replicas[:t + 1]:
            for _, entry in replica.commit_log.items():
                assert detector._commit_proof_valid(entry)

    def test_signature_over_something_else_fails(self, t):
        runtime, detector, entry = self.witness(t)
        unrelated = runtime.replica(0).sign("hello world")
        assert not detector._commit_proof_valid(dataclasses.replace(
            entry, proof=(unrelated, *entry.proof[1:])))
        assert not detector._commit_proof_valid(dataclasses.replace(
            entry, proof=(unrelated,)))

    def test_proof_lifted_to_another_slot_or_view_fails(self, t):
        _, detector, entry = self.witness(t)
        assert not detector._commit_proof_valid(dataclasses.replace(
            entry, seqno=entry.seqno + 1))
        assert not detector._commit_proof_valid(dataclasses.replace(
            entry, view=entry.view + 1))

    def test_first_signature_must_be_the_primarys(self, t):
        runtime, detector, entry = self.witness(t)
        ordering = msg.FastPrepare if t == 1 else msg.Prepare
        by_follower = runtime.replica(1).sign(ordering.payload_of(
            batch_digest=msg.batch_digest_of(entry.batch),
            seqno=entry.seqno, view=entry.view))
        assert not detector._commit_proof_valid(dataclasses.replace(
            entry, proof=(by_follower, *entry.proof[1:])))

    def test_the_rest_must_be_distinct_followers(self, t):
        runtime, detector, entry = self.witness(t)
        primary_sig, *rest = entry.proof
        passive = runtime.replica(detector.groups.passive(entry.view)[0])
        for bad in ((primary_sig, rest[0], rest[0]),
                    (primary_sig, passive.sign("anything")),
                    (primary_sig, primary_sig)):
            assert not detector._commit_proof_valid(
                dataclasses.replace(entry, proof=bad))

    def test_recommitted_entry_carries_the_new_primary_alone(self, t):
        runtime, detector, entry = self.witness(t)
        runtime.replica(1).suspect_view(0)
        runtime.sim.run(until=runtime.sim.now + 2_000.0)
        primary = primary_of(runtime, runtime.replica(1).view)
        assert primary.view_changes_completed >= 1
        recommitted = [e for _, e in primary.commit_log.items()
                       if len(e.proof) == 1]
        assert recommitted
        assert all(detector._commit_proof_valid(e) for e in recommitted)


def test_follower_vote_over_another_slot_fails_at_t2():
    """At t >= 2 the followers' COMMIT votes are re-derived too (the
    t = 1 ``m1`` cannot be: it covers a reply digest the entry lacks)."""
    runtime, detector, entry = TestCommitProofValid().witness(2)
    stray = msg.CommitVote.signed(
        runtime.replica(1).sign, view=entry.view, seqno=entry.seqno + 1,
        batch_digest=msg.batch_digest_of(entry.batch), sender=1)
    primary_sig, first, *others = entry.proof
    assert first.signer == "r1"
    assert not detector._commit_proof_valid(dataclasses.replace(
        entry, proof=(primary_sig, stray.sig, *others)))
