"""Unit tests for the transport-level authenticator policies."""

from dataclasses import dataclass

import pytest

from repro.crypto.authenticators import (
    MAC_BYTES,
    MAC_VECTOR,
    MODELED_MAC,
    NULL,
    POLICIES,
    register,
)
from repro.crypto.costs import CostModel, CpuMeter
from repro.crypto.primitives import KeyStore, digest_of


@pytest.fixture
def keystore():
    return KeyStore()


@pytest.fixture
def cpu():
    return CpuMeter(CostModel.free())


class TestMacVector:
    def test_roundtrip(self, keystore, cpu):
        body = ("prechk", 8, 0, b"state", 1)
        ctx = MAC_VECTOR.begin(keystore, "r1", body)
        mac = MAC_VECTOR.stamp(keystore, "r1", "r2", ctx)
        assert MAC_VECTOR.verify(keystore, cpu, "r1", "r2", body, mac)

    def test_one_digest_many_channels(self, keystore, cpu):
        """The fan-out optimization: one payload digest, n channel MACs,
        each valid only on its own channel."""
        body = ("payload", 42)
        ctx = MAC_VECTOR.begin(keystore, "r0", body)
        assert ctx == digest_of(body)
        macs = {dst: MAC_VECTOR.stamp(keystore, "r0", dst, ctx)
                for dst in ("r1", "r2", "c0")}
        assert len({m._token for m in macs.values()}) == 3
        for dst, mac in macs.items():
            assert MAC_VECTOR.verify(keystore, cpu, "r0", dst, body, mac)
            other = "r1" if dst != "r1" else "r2"
            assert not MAC_VECTOR.verify(keystore, cpu, "r0", other, body,
                                         mac)

    def test_rejects_tampered_body(self, keystore, cpu):
        ctx = MAC_VECTOR.begin(keystore, "r1", ("m", 1))
        mac = MAC_VECTOR.stamp(keystore, "r1", "r2", ctx)
        assert not MAC_VECTOR.verify(keystore, cpu, "r1", "r2", ("m", 2),
                                     mac)

    def test_rejects_claimed_sender_mismatch(self, keystore, cpu):
        """A Byzantine r3 relaying r1's MAC from its own address fails
        the channel binding."""
        body = ("m", 1)
        mac = MAC_VECTOR.stamp(keystore, "r1", "r2",
                               MAC_VECTOR.begin(keystore, "r1", body))
        assert not MAC_VECTOR.verify(keystore, cpu, "r3", "r2", body, mac)

    def test_rejects_wrong_auth_type(self, keystore, cpu):
        assert not MAC_VECTOR.verify(keystore, cpu, "r1", "r2", "m", None)
        assert not MAC_VECTOR.verify(keystore, cpu, "r1", "r2", "m",
                                     keystore.sign("r1", "m"))

    def test_sender_charges_per_receiver(self, keystore):
        cpu = CpuMeter(CostModel())
        MAC_VECTOR.charge_send(cpu, 7, 1024)
        assert cpu.busy_us == pytest.approx(
            7 * CostModel().mac_cost(1024))

    def test_wire_bytes(self):
        assert MAC_VECTOR.auth_bytes == MAC_BYTES == 20


class TestNullAndModeled:
    def test_null_is_free_and_open(self, keystore, cpu):
        assert NULL.auth_bytes == 0
        assert not NULL.verify_on_delivery
        assert NULL.stamp(keystore, "a", "b",
                          NULL.begin(keystore, "a", "m")) is None
        NULL.charge_send(cpu, 5, 1024)
        assert cpu.busy_us == 0.0

    def test_modeled_charges_but_stamps_nothing(self, keystore):
        cpu = CpuMeter(CostModel())
        assert MODELED_MAC.auth_bytes == MAC_BYTES
        assert not MODELED_MAC.verify_on_delivery
        assert MODELED_MAC.stamp(
            keystore, "a", "b", MODELED_MAC.begin(keystore, "a", "m")) \
            is None
        MODELED_MAC.charge_send(cpu, 3, 512)
        assert cpu.busy_us == pytest.approx(3 * CostModel().mac_cost(512))


class TestRegistry:
    def test_register_and_lookup(self):
        class Probe:
            pass

        assert POLICIES.get(Probe) is None
        probe = register(MAC_VECTOR)(Probe)
        assert POLICIES[probe] is MAC_VECTOR
        assert register(MAC_VECTOR)(probe) is probe  # idempotent

    def test_rebinding_to_other_policy_rejected(self):
        @register(NULL)
        class Probe2:
            pass

        with pytest.raises(ValueError):
            register(MAC_VECTOR)(Probe2)

    def test_only_frozen_dataclasses_are_registered(self):
        """``register`` makes the frozen dataclass itself: a class that
        is a (mutable) dataclass already, or that defines its own
        ``__init__``, is refused."""
        @dataclass
        class Mutable:
            x: int

        class Plain:
            def __init__(self, x):
                self.x = x

        for cls in (Mutable, Plain):
            with pytest.raises(TypeError):
                register(NULL)(cls)
            assert cls not in POLICIES

    def test_every_protocol_wire_class_is_registered(self):
        """All five protocols' wire messages carry a policy (the registry
        is what the delivery-time verification keys on)."""
        import repro.protocols.base as base
        import repro.protocols.campaign as campaign
        import repro.protocols.paxos.replica as paxos
        import repro.protocols.pbft.replica as pbft
        import repro.protocols.xpaxos.messages as xmsg
        import repro.protocols.zab.replica as zab
        import repro.protocols.zyzzyva.replica as zyz

        expected = [
            base.ClientRequestMsg, base.GenericReply, base.SyncRequest,
            base.SyncReply, campaign.NewView,
            paxos.Accept, paxos.Accepted, paxos.Learn, paxos.NewBallot,
            paxos.Promise,
            pbft.PrePrepare, pbft.CommitMsg, pbft.ViewChange,
            zyz.OrderReq, zyz.CommitCert, zyz.ViewChange,
            zab.Proposal, zab.Ack, zab.CommitZab, zab.FollowerInfo,
            xmsg.Replicate, xmsg.Prepare, xmsg.CommitVote, xmsg.FastPrepare,
            xmsg.FastCommit, xmsg.ReplyMsg, xmsg.Suspect, xmsg.ViewChange,
            xmsg.VcFinal, xmsg.VcConfirm, xmsg.NewView, xmsg.PreChk,
            xmsg.Chkpt, xmsg.LazyChk, xmsg.LazyCommit, xmsg.FetchEntries,
            xmsg.FetchReply, xmsg.ReSend, xmsg.SignedReplyShare,
            xmsg.SignedReplies, xmsg.FaultAccusation,
        ]
        registry = POLICIES
        missing = [cls.__name__ for cls in expected if cls not in registry]
        assert not missing, missing
        # The two MAC-vector channels are the adversarially exercised ones.
        assert registry[xmsg.PreChk] is MAC_VECTOR
        assert registry[xmsg.ReplyMsg] is MAC_VECTOR
